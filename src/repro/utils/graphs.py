"""Graph algorithms shared by the DFS and Petri-net packages, in plain Python.

The library needs four textbook algorithms on small directed graphs given as
``(src, dst)`` edge lists: simple cycle enumeration (Johnson, SIAM J. Comput.
1975) for performance analysis and structural validation, strongly connected
components (Tarjan, SIAM J. Comput. 1972), breadth-first reachability, and
topological order (Kahn, CACM 1962).

Every function works on a canonical node order -- the nodes sorted, or sorted
by ``repr`` when they do not compare -- so results never depend on the
iteration order of the edge container (DFS edges live in a ``set``, whose
order varies with ``PYTHONHASHSEED``).  Each cycle starts at its first node
in that order.
"""

from collections import deque


def _indexed(edges, nodes=None):
    """``(order, successors)``: canonical node order, sorted index adjacency."""
    adjacency = {}
    for node in nodes or ():
        adjacency.setdefault(node, set())
    for source, target in edges:
        adjacency.setdefault(source, set()).add(target)
        adjacency.setdefault(target, set())
    try:
        order = sorted(adjacency)
    except TypeError:
        order = sorted(adjacency, key=repr)
    rank = {node: index for index, node in enumerate(order)}
    return order, [sorted(rank[target] for target in adjacency[node]) for node in order]


def _tarjan(successors, members):
    """SCCs (sets of indices) of the subgraph induced by *members*."""
    index, low, on_stack, stack, components = {}, {}, set(), [], []
    for root in sorted(members):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, pending = work[-1]
            for target in pending:
                if target not in members:
                    continue
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(successors[target])))
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while node not in component:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                    components.append(component)
    return components


def _circuits(successors, start, component):
    """Johnson's CIRCUIT: the simple cycles through *start* inside *component*."""
    def inside(node):  # self-loops are listed apart, as one-node cycles
        return [t for t in successors[node] if t in component and t != node]

    path, blocked, closed = [start], {start}, set()
    blockers = {node: set() for node in component}
    work = [(start, inside(start)[::-1])]
    while work:
        node, pending = work[-1]
        if pending:
            target = pending.pop()
            if target == start:
                yield list(path)
                closed.update(path)
            elif target not in blocked:
                path.append(target)
                closed.discard(target)
                blocked.add(target)
                work.append((target, inside(target)[::-1]))
            continue
        if node in closed:
            unblock = [node]
            while unblock:
                member = unblock.pop()
                if member in blocked:
                    blocked.discard(member)
                    unblock.extend(blockers[member])
                    blockers[member].clear()
        else:
            for target in inside(node):
                blockers[target].add(node)
        work.pop()
        path.pop()


def enumerate_simple_cycles(edges, nodes=None, limit=None):
    """Enumerate simple (elementary) cycles of a directed graph.

    Parameters
    ----------
    edges:
        Iterable of ``(src, dst)`` pairs.
    nodes:
        Optional iterable of nodes (to include isolated nodes).
    limit:
        Optional maximum number of cycles to return; ``None`` means all.

    Returns
    -------
    list of lists -- each inner list is the sequence of nodes along one cycle,
    starting at its first node in the canonical order.
    """
    order, successors = _indexed(edges, nodes)
    cycles = [[node] for index, node in enumerate(order) if index in successors[index]]
    # Johnson: take the least node of each remaining SCC, list the cycles
    # through it, drop it, and split what is left of the SCC again.
    pending = [c for c in _tarjan(successors, set(range(len(order)))) if len(c) > 1]
    while pending and (limit is None or len(cycles) < limit):
        component = pending.pop()
        start = min(component)
        for cycle in _circuits(successors, start, component):
            cycles.append([order[index] for index in cycle])
            if limit is not None and len(cycles) >= limit:
                break
        component.discard(start)
        pending.extend(c for c in _tarjan(successors, component) if len(c) > 1)
    return cycles if limit is None else cycles[:limit]


def strongly_connected_components(edges, nodes=None):
    """Return the list of SCCs (each a ``set`` of nodes) of a directed graph."""
    order, successors = _indexed(edges, nodes)
    return [{order[index] for index in component}
            for component in _tarjan(successors, set(range(len(order))))]


def reachable_from(edges, sources, nodes=None):
    """Return the set of nodes reachable from any node in *sources*."""
    order, successors = _indexed(edges, nodes)
    rank = {node: index for index, node in enumerate(order)}
    seen = {rank[source] for source in sources if source in rank}
    queue = deque(seen)
    while queue:
        for target in successors[queue.popleft()]:
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return {order[index] for index in seen}


def topological_order(edges, nodes=None):
    """Return a topological ordering, or ``None`` if the graph has a cycle."""
    order, successors = _indexed(edges, nodes)
    indegree = [0] * len(order)
    for targets in successors:
        for target in targets:
            indegree[target] += 1
    queue = deque(index for index, degree in enumerate(indegree) if degree == 0)
    result = []
    while queue:
        index = queue.popleft()
        result.append(order[index])
        for target in successors[index]:
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return result if len(result) == len(order) else None
