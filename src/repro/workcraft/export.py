"""Exporters: DFS/Petri-net models to DOT, JSON, ``.g`` and Verilog."""

from repro.exceptions import SerializationError
from repro.dfs.model import DataflowStructure
from repro.dfs.nodes import NodeType
from repro.dfs.serialization import dfs_to_json
from repro.dfs.translation import to_petri_net
from repro.petri.export import to_dot as petri_to_dot
from repro.petri.export import to_g_format
from repro.petri.net import PetriNet

#: Shapes used when rendering DFS node types (mirroring the tool's icons).
_NODE_SHAPES = {
    NodeType.LOGIC: ("ellipse", "white"),
    NodeType.REGISTER: ("box", "white"),
    NodeType.CONTROL: ("box", "lightblue"),
    NodeType.PUSH: ("box", "lightyellow"),
    NodeType.POP: ("box", "lightpink"),
}


def dfs_to_dot(dfs, graph_name=None, highlight=()):
    """Render a dataflow structure as a Graphviz DOT digraph."""
    highlight = set(highlight)
    lines = ['digraph "{}" {{'.format(graph_name or dfs.name)]
    lines.append("  rankdir=LR;")
    lines.append("  node [fontsize=10];")
    for name in sorted(dfs.nodes):
        node = dfs.node(name)
        shape, fill = _NODE_SHAPES[node.node_type]
        label = name
        if node.is_register and node.marked:
            if node.is_dynamic and node.initial_value is not None:
                label += "\\n({})".format("T" if node.initial_value else "F")
            else:
                label += "\\n(*)"
        color = "red" if name in highlight else "black"
        lines.append(
            '  "{}" [shape={}, style=filled, fillcolor={}, label="{}", color={}];'.format(
                name, shape, fill, label, color))
    for source, target in sorted(dfs.edges):
        lines.append('  "{}" -> "{}";'.format(source, target))
    lines.append("}")
    return "\n".join(lines) + "\n"


#: Export formats: format name -> description.
_FORMATS = {
    "dot": "Graphviz DOT drawing of a DFS or Petri-net model",
    "json": "JSON document of a DFS model",
    "pn-dot": "Graphviz DOT drawing of the Petri-net translation",
    "g": "petrify/MPSAT .g file of the Petri-net translation",
    "verilog": "structural Verilog netlist of the mapped circuit",
}


def available_formats():
    """Return ``{format name: description}`` of the supported export formats."""
    return dict(_FORMATS)


def export_model(model, format_name):
    """Export *model* (a DFS or a Petri net) in the requested format."""
    format_name = format_name.lower()
    if format_name not in _FORMATS:
        raise SerializationError(
            "unknown export format {!r}; available: {}".format(
                format_name, ", ".join(sorted(_FORMATS))))
    if isinstance(model, PetriNet):
        if format_name in ("dot", "pn-dot"):
            return petri_to_dot(model)
        if format_name == "g":
            return to_g_format(model)
        raise SerializationError(
            "format {!r} is not applicable to a Petri net".format(format_name))
    if not isinstance(model, DataflowStructure):
        raise SerializationError(
            "cannot export an object of type {!r}".format(type(model).__name__))
    if format_name == "dot":
        return dfs_to_dot(model)
    if format_name == "json":
        return dfs_to_json(model)
    if format_name == "pn-dot":
        return petri_to_dot(to_petri_net(model))
    if format_name == "g":
        return to_g_format(to_petri_net(model))
    if format_name == "verilog":
        from repro.circuits.mapping import map_dfs_to_netlist
        from repro.circuits.verilog import to_verilog
        return to_verilog(map_dfs_to_netlist(model))
    raise SerializationError("unhandled export format {!r}".format(format_name))
