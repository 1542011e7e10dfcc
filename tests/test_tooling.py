"""The benchmark tracer wraps program functions by name; every name it
wraps must still exist where it looks it up.  The before/after records
BENCH_*.json at the repository root must agree with their own pairs.  The
demos import nothing from the tests, no library module keeps an unused
import, and the README cites no code that does not exist."""

import ast
import builtins
import dataclasses
import importlib
import inspect
import json
import re
import runpy
import statistics
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def test_every_tracer_target_is_in_its_owners_namespace():
    # run from source so nothing is written next to the tracer
    tracer = runpy.run_path(str(TRACER))
    for module, path, _ in tracer["TARGETS"]:
        owner, attr = tracer["_owner"](module, path)
        # Recorder.install reads and replaces owner.__dict__[attr]
        assert attr in vars(owner), f"{module}.{path} is gone"
        assert callable(tracer["_function"](vars(owner)[attr]))


def test_a_traced_pass_reads_every_hook_and_metric(capsys):
    # the hooks read attributes of results (CharTable.n_classes and
    # .prime, PresentationReport.order_method and .order, a table's
    # .order) that the name check above cannot see
    from schur_ed import cli
    from schur_ed.clifford import verify_spin_representation

    tracer = runpy.run_path(str(TRACER))
    recorder = tracer["Recorder"]()
    recorder.install()
    try:
        for argv in (["cover", "verify", "-n", "5"], ["chartab", "-n", "6"],
                     ["ed2", "-n", "6", "--computed"],
                     ["table1", "--verify-max", "5"],
                     ["trace-check", "-n", "5", "--trials", "3"]):
            assert cli.main(argv) == 0, argv
        assert all(ok for _, ok in verify_spin_representation(5, "plus"))
    finally:
        recorder.uninstall()
    tracer["assert_clean"]()
    capsys.readouterr()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = recorder.metrics()
    assert set(metrics) == {m["name"] for m in declared["per_layer"]
                            if not m["name"].startswith("trace.")}
    for name in ("covers.closure_elems", "covers.class_count",
                 "chartab.prime", "chartab.class_count"):
        assert metrics[name] > 0, name


def test_the_spin_check_builds_through_the_public_builders(monkeypatch):
    # the traced clifford.spin_rep_s times the module-level
    # spin_representation: a check that built its generators another way
    # (say from the gammas' row maps) would leave it reading 0
    from schur_ed import clifford

    calls = []
    for name in ("basic_spin_matrices", "spin_representation"):
        real = getattr(clifford, name)

        def counting(*args, real=real, name=name):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(clifford, name, counting)
    assert all(ok for _, ok in clifford.verify_spin_representation(7, "minus"))
    assert calls == [("basic_spin_matrices", (7, -1)),
                     ("spin_representation", (7, "minus"))]


def test_every_bench_record_summarizes_its_pairs():
    # a BENCH_*.json is a hand-assembled before/after record: its summary
    # must follow from its own pairs, and every run in it must be clean
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        bench = json.loads(path.read_text())
        assert bench["workload"] in declared, path.name
        assert path.name == f"BENCH_{bench['workload']}.json"
        pairs = bench["pairs"]
        parent = [p["parent_wall_s"] for p in pairs]
        change = [p["change_wall_s"] for p in pairs]
        for p in pairs:
            assert p["change_wins"] == (p["change_wall_s"] < p["parent_wall_s"])
        q1, _, q3 = statistics.quantiles(parent, n=4)
        assert bench["wall_s"] == {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "change_wins": sum(p["change_wins"] for p in pairs),
            "pairs": len(pairs),
            "parent_iqr": q3 - q1,
        }, path.name
        for side in bench["sides"].values():
            for rec in side["records"]:
                assert rec["result"]["correct"] is True, path.name
                assert rec["result"]["failed"] == 0, path.name


def test_no_demo_imports_test_code():
    # a demo shows the library: it may not lean on the tests' oracles
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top not in ("tests", "oracles", "conftest"), (
                    path.name, name)


def test_no_module_has_an_unused_import():
    # a linter's unused-import rule in the stdlib: a module-level import of
    # src/schur_ed that no name, attribute root or benchmark tracer target
    # reads is dead
    tracer = runpy.run_path(str(TRACER))
    traced = {(module, path.split(".")[0])
              for module, path, _ in tracer["TARGETS"]}
    modules = sorted((ROOT / "src" / "schur_ed").glob("*.py"))
    assert modules
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        module = "schur_ed." + path.stem
        unused = sorted(name for name in imported
                        if name not in used and (module, name) not in traced)
        assert not unused, (path.name, unused)


def _modules():
    """The library modules and the test oracles, by name."""
    import oracles

    names = sorted(path.stem for path in (ROOT / "src" / "schur_ed").glob("*.py")
                   if path.stem not in ("__init__", "__main__"))
    found = {name: importlib.import_module("schur_ed." + name)
             for name in names}
    found["oracles"] = oracles
    return found


def _resolves(dotted: str, modules) -> bool:
    """Whether a dotted name is an attribute chain from schur_ed, a library
    module, the oracles, a name one of them defines, an importable module,
    a numpy name or a builtin, tried in that order."""
    head, *rest = dotted.split(".")
    if head == "schur_ed" or head in modules:
        obj = importlib.import_module(
            "schur_ed" if head == "schur_ed" else modules[head].__name__)
    else:
        obj = next((getattr(m, head) for m in modules.values()
                    if hasattr(m, head)), None)
        if obj is None:
            try:
                obj = importlib.import_module(head)
            except ImportError:
                obj = getattr(np, head, getattr(builtins, head, None))
        if obj is None:
            return False
    for attr in rest:
        if inspect.ismodule(obj) and not hasattr(obj, attr):
            try:
                importlib.import_module(f"{obj.__name__}.{attr}")
            except ImportError:
                return False
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _defined_names(modules):
    """Every name the library and the oracles define: module attributes,
    the attributes and dataclass fields of their classes, and the metric
    names of BENCHMARK.json."""
    names = set()
    for module in modules.values():
        for value in vars(module).values():
            if inspect.isclass(value):
                names.update(dir(value))
                if dataclasses.is_dataclass(value):
                    names.update(f.name for f in dataclasses.fields(value))
        names.update(vars(module))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names.update(m["name"] for kind in ("end_to_end", "per_layer")
                 for m in declared[kind])
    return names


def test_the_readme_cites_only_code_that_exists():
    # a deleted function left in the prose (say a `numth.sqrt_mod`) reads
    # as if it were still there
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                  flags=re.S)
    cited = set(re.findall(r"`([^`\n]+)`", text))
    modules = _modules()
    dotted = {t for t in cited if re.fullmatch(r"\w+(\.\w+)+", t)
              and t.rsplit(".", 1)[1] not in ("json", "py", "md", "toml")}
    assert dotted and not sorted(t for t in dotted
                                 if not _resolves(t, modules))
    oracles = {t.split("::")[1] for t in cited
               if t.startswith("tests/oracles.py::")}
    assert oracles and not sorted(
        name for name in oracles if not hasattr(modules["oracles"], name))
    defined = _defined_names(modules)
    bare = {t for t in cited if re.fullmatch(r"[a-z_][a-z0-9_]*", t)
            and "_" in t.strip("_") and not t.startswith("__")}
    assert bare and not sorted(bare - defined)
    # the check itself sees a stale name
    assert not _resolves("numth.sqrt_mod", modules)
    assert "sqrt_mod" not in defined
