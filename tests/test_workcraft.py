"""Tests for the tool layer: exporters, plugin registry, projects and the CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.exceptions import ModelError, SerializationError
from repro.dfs.examples import conditional_comp_dfs, token_ring
from repro.dfs.serialization import dfs_to_json
from repro.dfs.translation import to_petri_net
from repro.workcraft.cli import main as cli_main
from repro.workcraft.export import available_formats, dfs_to_dot, export_model
from repro.workcraft.plugins import default_registry
from repro.workcraft.project import Project


class TestExport:
    def test_available_formats(self):
        formats = available_formats()
        assert {"dot", "json", "pn-dot", "g", "verilog"} <= set(formats)

    def test_dfs_to_dot_mentions_every_node(self, conditional_dfs):
        dot = dfs_to_dot(conditional_dfs)
        for name in conditional_dfs.nodes:
            assert name in dot

    def test_dfs_dot_marks_initial_tokens(self):
        ring = token_ring()
        assert "(*)" in dfs_to_dot(ring)

    def test_export_model_all_formats(self, conditional_dfs):
        for format_name in available_formats():
            text = export_model(conditional_dfs, format_name)
            assert isinstance(text, str) and text

    def test_export_petri_net(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        assert export_model(net, "dot").startswith("digraph")
        assert ".marking" in export_model(net, "g")
        with pytest.raises(SerializationError):
            export_model(net, "verilog")

    def test_unknown_format_rejected(self, conditional_dfs):
        with pytest.raises(SerializationError):
            export_model(conditional_dfs, "pdf")

    def test_unsupported_object_rejected(self):
        with pytest.raises(SerializationError):
            export_model(42, "dot")


class TestPluginsAndProject:
    def test_default_registry_contents(self):
        registry = default_registry()
        assert "dfs" in registry and "petri" in registry
        plugin = registry.plugin("dfs")
        assert {"validate", "verify", "simulate", "translate", "analyse"} <= set(plugin.operations)

    def test_plugin_for_model(self, conditional_dfs):
        registry = default_registry()
        assert registry.plugin_for(conditional_dfs).name == "dfs"
        with pytest.raises(ModelError):
            registry.plugin_for(object())

    def test_project_add_get_run(self, conditional_dfs):
        project = Project("demo")
        project.add("cond", conditional_dfs)
        assert "cond" in project and len(project) == 1
        issues = project.run("cond", "validate")
        assert isinstance(issues, list)
        summary = project.run("cond", "verify", max_states=50000)
        assert summary.passed

    def test_project_duplicate_and_missing_names(self, conditional_dfs):
        project = Project()
        project.add("m", conditional_dfs)
        with pytest.raises(ModelError):
            project.add("m", conditional_dfs)
        with pytest.raises(ModelError):
            project.get("missing")
        with pytest.raises(ModelError):
            project.run("m", "launch_rockets")

    def test_project_save_and_load(self, tmp_path, conditional_dfs):
        project = Project("demo")
        project.add("cond", conditional_dfs)
        project.add("ring", token_ring())
        directory = str(tmp_path / "workspace")
        project.save(directory)
        loaded = Project.load(directory)
        assert loaded.names() == ["cond", "ring"]
        assert loaded.get("cond").nodes.keys() == conditional_dfs.nodes.keys()

    def test_project_load_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError):
            Project.load(str(tmp_path))


class TestCli:
    def test_info_on_example(self, capsys):
        assert cli_main(["info", "--example", "conditional"]) == 0
        output = capsys.readouterr().out
        assert "nodes" in output

    def test_validate_example(self):
        assert cli_main(["validate", "--example", "conditional"]) == 0

    def test_verify_example(self, capsys):
        assert cli_main(["verify", "--example", "conditional", "--no-persistence"]) == 0
        assert "deadlock freedom" in capsys.readouterr().out

    def test_simulate_example(self, capsys):
        assert cli_main(["simulate", "--example", "ring", "--steps", "50", "--trace"]) == 0
        assert "fired" in capsys.readouterr().out

    def test_analyse_example(self, capsys):
        assert cli_main(["analyse", "--example", "ring"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_export_to_file_and_model_round_trip(self, tmp_path, capsys, conditional_dfs):
        model_path = str(tmp_path / "cond.json")
        dfs_to_json(conditional_comp_dfs(), path=model_path)
        output_path = str(tmp_path / "cond.dot")
        assert cli_main(["export", model_path, "--format", "dot", "-o", output_path]) == 0
        with open(output_path, encoding="utf-8") as handle:
            assert handle.read().startswith("digraph")

    def test_export_verilog_to_stdout(self, capsys):
        assert cli_main(["export", "--example", "conditional", "--format", "verilog"]) == 0
        assert "module" in capsys.readouterr().out

    def test_missing_model_argument_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["info"])

    @pytest.mark.parametrize("command", ["info", "verify"])
    def test_missing_model_file_is_an_error_line(self, command, tmp_path, capsys):
        missing = str(tmp_path / "no" / "such" / "file.json")
        assert cli_main([command, missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no such model file: {}\n".format(missing)
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["info", "verify"])
    @pytest.mark.parametrize("text, message", [
        ("{not json", "malformed JSON document"),
        (json.dumps({"format": "something-else", "version": 1}),
         "expected a 'repro-dfs' document, found 'something-else'"),
    ])
    def test_unreadable_model_is_an_error_line(self, command, text, message,
                                               tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_unknown_campaign_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["campaign", "--family", "bogus", "--jobs", "0", "--no-cache"])
        assert info.value.code == 2
        assert "argument --family: invalid choice: 'bogus'" in capsys.readouterr().err


def _run_python(argv, **env):
    """Run a fresh interpreter on this checkout; returns the completed process."""
    source = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [source, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          env=environ, timeout=300)


def _run_cli(args, **env):
    return _run_python(["-m", "repro.workcraft.cli"] + args, **env)


class TestCliProcess:
    """The CLI as users start it: a fresh interpreter per command."""

    def test_import_loads_no_verb_only_modules(self):
        run = _run_python(["-c", "import sys, repro.workcraft.cli; print(*sorted(sys.modules))"])
        assert run.returncode == 0, run.stderr
        loaded = set(run.stdout.split())
        heavy = ("numpy", "networkx", "repro.campaign", "repro.smt",
                 "repro.service", "repro.circuits")
        assert "repro.workcraft.cli" in loaded
        assert [name for name in heavy if name in loaded] == []

    def test_verify_output_does_not_depend_on_the_engine(self):
        default = _run_cli(["verify", "--example", "conditional"])
        scalar = _run_cli(["verify", "--example", "conditional"], REPRO_NO_NUMPY="1")
        assert default.returncode == scalar.returncode == 0
        assert default.stdout == scalar.stdout

    @pytest.mark.parametrize("command", ["analyse", "validate"])
    def test_output_does_not_depend_on_the_hash_seed(self, command, tmp_path):
        from repro.campaign.jobs import build_pipeline_model

        path = str(tmp_path / "ope3s_p1.json")
        dfs_to_json(build_pipeline_model(stages=3, static_prefix=1), path=path)
        runs = [_run_cli([command, path], PYTHONHASHSEED=seed) for seed in "012"]
        assert [run.returncode for run in runs] == [0, 0, 0]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout == runs[2].stdout
