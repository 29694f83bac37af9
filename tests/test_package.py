"""The package namespace: lazy exports, the numpy-free import boundary, and
the dependencies each folder may import, and the test settings, under
which a failing hypothesis test is reported as a failure.

`import gapdyn` and `import gapdyn.cli` load no numpy, dataclasses or
inspect, and neither do the commands that need no numpy (`classify`,
`check`, usage errors).  A CSV of one
block leaves the numpy formatter's tables unbuilt.  Boundary checks
run in fresh interpreters, since this one has long imported everything.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gapdyn
from gapdyn.cli import main

_SRC = str(Path(gapdyn.__file__).resolve().parents[1])
_ROOT = Path(__file__).resolve().parents[1]
# What a numpy-free start-up leaves unloaded: numpy, and dataclasses and
# inspect, whose imports alone cost a short command about 7 ms.
_HEAVY_LOADED = ("sorted(m for m in sys.modules if m in ('dataclasses', 'inspect')"
                 " or m == 'numpy' or m.startswith('numpy.'))")


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


class TestLazyExports:
    def test_names_resolve_to_their_defining_module(self):
        assert gapdyn.errors is importlib.import_module("gapdyn.errors")
        for module, names in gapdyn._EXPORTS.items():
            owner = importlib.import_module(f"gapdyn.{module}")
            for name in names:
                value = getattr(gapdyn, name)
                assert value is getattr(owner, name), name
                if inspect.isclass(value) or inspect.isfunction(value):
                    assert value.__module__ == owner.__name__, name
        assert set(gapdyn.__all__) == {"errors", *gapdyn._OWNER}

    def test_readme_tour_lists_every_export(self):
        tour = (_ROOT / "README.md").read_text(encoding="utf-8")
        tour = tour.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in tour.splitlines():
            cells = line.strip("|").split("|")
            module = re.fullmatch(r"\s*`gapdyn\.(\w+)`\s*", cells[0])
            if line.startswith("|") and module:
                rows[module[1]] = sorted(re.findall(r"`(\w+)`", cells[1]))
        assert sorted(rows) == sorted(gapdyn._EXPORTS)
        for module, names in rows.items():
            if module == "errors":
                # The row gives examples; each must be an error class.
                assert names and set(names) <= set(gapdyn._EXPORTS["errors"])
            else:
                assert names == sorted(gapdyn._EXPORTS[module]), module

    def test_star_import_and_dir_in_fresh_process(self):
        proc = _fresh(
            "import gapdyn\n"
            "listed = set(gapdyn.__all__) <= set(dir(gapdyn))\n"
            "namespace = {}\n"
            "exec('from gapdyn import *', namespace)\n"
            "print(listed, sorted(set(gapdyn.__all__) - set(namespace)))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True []\n"

    def test_submodule_after_bare_import(self):
        proc = _fresh("import gapdyn; print(gapdyn.integrate.TimeGrid(0.5, 3).times().tolist())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0.0, 0.5, 1.0]\n"

    def test_unknown_names_raise_without_numpy(self):
        proc = _fresh(
            "import sys, gapdyn, gapdyn.cli\n"
            "for module, name in ((gapdyn, 'no_such_name'), (gapdyn, '__wrapped__'),\n"
            "                     (gapdyn.cli, 'no_such_name'), (gapdyn.cli, '__path__')):\n"
            "    try:\n"
            "        getattr(module, name)\n"
            "    except AttributeError:\n"
            "        continue\n"
            "    raise SystemExit(f'{module.__name__}.{name} resolved')\n"
            f"print({_HEAVY_LOADED})\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestErrorTaxonomy:
    # Every error class in gapdyn.errors and its CLI exit status.
    EXIT_CODES = {
        "GapdynError": 2, "InvariantViolation": 2, "ImpulseOutsideGrid": 2,
        "UnknownKey": 2, "BadValue": 2, "MissingHeader": 2, "NonUniformSpacing": 2,
        "BadNumber": 2, "BadEncoding": 2,
        "Degenerate": 3, "NonStationary": 3, "Divergence": 3,
    }

    def test_every_error_class_has_its_family_exit_code_and_is_public(self):
        classes = {
            name: value for name, value in vars(gapdyn.errors).items()
            if inspect.isclass(value) and issubclass(value, gapdyn.errors.GapdynError)
        }
        assert {name: cls.exit_code for name, cls in classes.items()} == self.EXIT_CODES
        for name, cls in classes.items():
            assert cls.__module__ == "gapdyn.errors", name
            assert getattr(gapdyn, name) is cls, name
            assert name in gapdyn.__all__, name


class TestImportBoundary:
    def test_import_loads_no_numpy(self):
        proc = _fresh(f"import sys, gapdyn, gapdyn.cli; print({_HEAVY_LOADED})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--gamma", "0.5", "--alpha", "4.0"], 0),
        (["classify", "--gamma", "-1.0", "--alpha", "4.0"], 2),
        (["check", "--beta", "0.99", "--sigma-c", "2.0", "--point", "r=0.05,b=2.0"], 0),
        ([], 1),
        (["simulate"], 1),
        (["sweep", "--config", "x.cfg", "--gamma-from", "1", "--gamma-to", "2",
          "--gamma-steps", "many"], 1),
    ])
    def test_command_loads_no_numpy(self, argv, code):
        proc = _fresh(
            "import sys\n"
            "from gapdyn.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, {_HEAVY_LOADED}, file=sys.stderr)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{code} []"

    def test_closed_form_loads_no_numpy(self):
        proc = _fresh(
            "import sys\n"
            "from gapdyn import OscillatorParams, OscState, solve_analytic\n"
            "s = solve_analytic(OscillatorParams(0.5, 1.0), OscState(1.0, 0.0), 2.0)\n"
            f"print(s.y != 1.0, {_HEAVY_LOADED})\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True []\n"

    @pytest.mark.parametrize("command, unused", [
        (["simulate", "--config", "{cfg}", "--out", "{dir}/out.csv"],
         ["gapdyn.estimation", "gapdyn.svgplot", "gapdyn.dsge", "numpy.random"]),
        (["sweep", "--config", "{cfg}", "--gamma-from", "0.5", "--gamma-to", "2",
          "--gamma-steps", "4"], ["gapdyn.estimation", "gapdyn.svgplot", "numpy.random"]),
        (["estimate", "--in", "{csv}", "--method", "mle"],
         ["gapdyn.integrate", "gapdyn.svgplot", "gapdyn.dsge"]),
        (["classify", "--gamma", "0.5", "--alpha", "4.0"], ["gapdyn.dsge"]),
        (["check", "--beta", "0.99", "--sigma-c", "2.0", "--point", "r=0.05"],
         ["gapdyn.oscillator"]),
    ])
    def test_command_loads_only_its_layers(self, tmp_path, command, unused):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("shock = white-noise\nshock_seed = 4\n")
        csv = Path(__file__).with_name("golden") / "simulate-rk4-white-noise.csv"
        argv = [a.format(cfg=cfg, dir=tmp_path, csv=csv) for a in command]
        proc = _fresh(
            "import sys\n"
            "from gapdyn.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, sorted(m for m in {unused!r} if m in sys.modules), file=sys.stderr)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"

    def test_simulate_in_fresh_process(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("shock = white-noise\nshock_seed = 4\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        proc = _fresh(f"import sys; from gapdyn.cli import main; sys.exit(main({argv!r}))")
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout.startswith("settling_time=")

    @pytest.mark.parametrize("config, built", [
        ("", []),  # 201 nodes, one block: printed by `%`
        ("t_end = 128\ndt = 0.125\n",  # 1025 nodes
         ["_g17_codes", "_g17_masks", "_group_digits", "_quads", "_scales"]),
    ], ids=["201-nodes", "1025-nodes"])
    def test_only_a_csv_past_one_block_builds_the_formatter_tables(self, tmp_path, config, built):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(config)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        proc = _fresh(
            "import sys\n"
            "from gapdyn import _textfmt\n"
            "from gapdyn.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(name for name, fn in vars(_textfmt).items()\n"
            "                   if hasattr(fn, 'cache_info') and fn.cache_info().currsize),\n"
            "      file=sys.stderr)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"0 {built}"


def test_no_module_reads_the_environment():
    # A run reads its arguments and files only, so the same command gives
    # the same bytes in any shell.
    names = {"environ", "environb", "getenv"}
    found = []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_errors_words_a_finiteness_check():
    # errors._check is the one rule for a value's domain, so no other module
    # writes `<name> must be finite` itself, in a plain or an f-string, with
    # the name spelled out or formatted in.
    wording = re.compile(r"^(\w[\w-]*)? must be finite")
    found = []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if wording.match(node.value):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_check_keeps_its_value():
    # errors._check returns its value as a Python float and errors._check_int
    # as a Python int, and each is the one place a checked scalar is
    # converted, so outside errors each call of either is the value of an
    # assignment or a return, or what object.__setattr__ stores; a record's
    # float field goes through errors._check_field instead.
    found = []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kept = {id(node.value) for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.Return))}
        kept |= {id(node.args[-1]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _name(node.func) == "__setattr__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) in ("_check", "_check_int") and (
                id(node) not in kept or _name(node.func) == "_check" and any(
                    isinstance(arg, ast.Attribute) and _name(arg.value) == "self"
                    for arg in node.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_a_checked_field_is_checked_as_annotated():
    # The annotation is the rule: a record that checks its fields stores
    # each float field through errors._check_field, which makes it a float,
    # and each int field as errors._check_int's result, an int, and it
    # checks no field through the other rule.  Results that the package
    # builds (no __post_init__) check no field.
    records = 0
    for path, tree in _trees("src/gapdyn"):
        for node in filter(_is_record, ast.walk(tree)):
            post = [f for f in node.body if isinstance(f, ast.FunctionDef)
                    and f.name == "__post_init__"]
            if not post:
                continue
            records += 1
            annotated = {stmt.target.id: ast.unparse(stmt.annotation) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign)
                         and ast.unparse(stmt.annotation) in ("float", "int")}
            checked = {}
            for call in ast.walk(post[0]):
                if not isinstance(call, ast.Call):
                    continue
                if _name(call.func) == "_check_field":
                    checked[call.args[1].value] = "float"
                elif (_name(call.func) == "__setattr__"
                      and _name(getattr(call.args[2], "func", None)) == "_check_int"):
                    field = call.args[1].value
                    if ast.unparse(call.args[2].args[1]) == f"self.{field}":
                        checked[field] = "int"
            assert checked == annotated, f"{path.name}:{node.name}"
    assert records >= 10


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Under the project's warnings-as-errors, the tests after a failing
    # @given test still run, and the session reports both outcomes.
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_only_errors_words_an_integer_check():
    # errors._check_int is the one rule for an integer input, so no other
    # module writes `must be an integer` itself.
    found = []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "must be an integer" in node.value:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _name(node):
    """The name that a Name or an attribute node ends in, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_record_field_is_read():
    # A record field that nothing reads is an input that changes nothing, so
    # every _Record field is loaded as `x.<field>` somewhere outside an
    # errors._check call, which only tests its domain.  Reads are matched by
    # name, not by the type of x.
    fields, read = [], set()
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        checked = {
            id(arg) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "_check"
            for arg in node.args
        }
        for node in ast.walk(tree):
            if _is_record(node):
                fields += [
                    (f"{path.name}:{node.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and id(node) not in checked):
                read.add(node.attr)
    assert len(fields) >= 50
    assert [where for where, name in fields if name not in read] == []


def _is_record(node):
    """Whether the AST node is a class whose bases include errors._Record."""
    return isinstance(node, ast.ClassDef) and any(_name(b) == "_Record" for b in node.bases)


def _trees(*places):
    """(path, parsed module) of every .py file in each folder or file of
    `places`, given relative to the repository root."""
    for place in places:
        root = _ROOT / place
        for path in sorted(root.glob("*.py")) if root.is_dir() else [root]:
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _defaults(path):
    """(where, function name, parameter, its position in a call or None
    for keyword-only, the default's AST dump) for every parameter with a
    default of every function defined in `path`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        # A method's self or cls is not written in its calls.
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(a.defaults)
        pairs = [(arg, i - skip, d) for i, (arg, d) in
                 enumerate(zip(positional[first:], a.defaults), start=first)]
        pairs += [(arg, None, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        out += [(f"{path.name}:{node.name}.{arg.arg}", node.name, arg.arg, pos, ast.dump(d))
                for arg, pos, d in pairs]
    return out


def test_every_default_is_set_by_some_caller():
    # A parameter that every caller leaves at its default is a constant with
    # extra configurations to test, so some call in the package, the demos
    # or the benchmark passes each one a value other than that same literal
    # default, by position or by keyword (a variable passed on counts).
    # Calls are matched by the name they end in, not by the function object.
    params = [d for path in sorted((_ROOT / "src/gapdyn").glob("*.py")) for d in _defaults(path)]
    set_by_a_call = set()
    for _, tree in _trees("src/gapdyn", "demos", "bench"):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            given = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
            for _, func, name, pos, default in params:
                if func != _name(call.func):
                    continue
                value = given.get(name)
                if value is None and pos is not None and pos < len(call.args):
                    value = call.args[pos]
                if value is not None and ast.dump(value) != default:
                    set_by_a_call.add((func, name))
    # one positional and one keyword-only parameter, so the walk sees both
    assert {"cli.py:main.argv", "svgplot.py:write_svg.title"} <= {p[0] for p in params}
    assert [where for where, func, name, *_ in params if (func, name) not in set_by_a_call] == []


def test_every_export_is_reached():
    # A public name that only its own module and its unit tests use is
    # surface that no product path keeps honest, so each name in
    # gapdyn.__all__ is referenced outside its defining module and
    # __init__: in the package, the demos, the benchmark or the acceptance
    # tests.  A record that a reached export returns is reached with it.
    # Names are matched as in the tests above, not by object.
    exports = set(gapdyn.__all__)
    package = _ROOT / "src/gapdyn"
    home = {name: package / f"{gapdyn._OWNER.get(name, name)}.py" for name in exports}
    reached, returns = set(), {}
    for path, tree in _trees("src/gapdyn", "demos", "bench", "tests/test_acceptance.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in exports and node.returns:
                returns[node.name] = {_name(part) for part in ast.walk(node.returns)}
            if isinstance(node, ast.ImportFrom):
                names = [(node.module or "").rpartition(".")[2], *(a.name for a in node.names)]
            else:
                names = [_name(node)]
            reached.update(name for name in names if name in exports
                           and path not in (home[name], package / "__init__.py"))
    reached.update(*(returns[name] for name in reached & returns.keys()))
    assert {"EstimationResult", "RecoveryMetrics", "errors"} <= reached
    assert sorted(exports - reached) == []


def test_only_overwrite_opens_a_file_to_write():
    # Every output file goes through seriesio._overwrite, which opens it
    # without O_TRUNC.  Anywhere else, an os.open, a Path.write_text or
    # write_bytes, or an open() whose mode may write (or is not a literal)
    # would bring the truncating open back.  _overwrite itself takes only
    # the path and opens it "wb": the writers hand it bytes, so there is
    # one open mode and nothing for a caller to choose.
    found, helpers = [], []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers += [func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                    and (path.name, func.name) == ("seriesio.py", "_overwrite")]
        exempt = {id(node) for func in helpers for node in ast.walk(func)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in exempt:
                continue
            name, method = _name(call.func), isinstance(call.func, ast.Attribute)
            if name == "open" and not (method and _name(call.func.value) == "os"):
                # open(file, mode) and path.open(mode)
                given = [kw.value for kw in call.keywords if kw.arg == "mode"]
                mode = (given + call.args[1 - method:2 - method] + [ast.Constant("r")])[0]
                text = mode.value if isinstance(mode, ast.Constant) else "w"  # may write
                writes = bool(set(str(text)) & set("wax+"))
            else:
                writes = name in ("open", "write_text", "write_bytes")
            if writes:
                found.append(f"{path.name}:{call.lineno} {name}")
    assert found == []
    (helper,) = helpers
    args = helper.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["path"]
    assert args.vararg is args.kwarg is None
    opens = [call for call in ast.walk(helper)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "open"]
    assert [(ast.dump(call.args[1]), [kw.arg for kw in call.keywords]) for call in opens] == [
        (ast.dump(ast.Constant("wb")), ["opener"])
    ]


@pytest.mark.parametrize("folder, allowed", [
    ("src/gapdyn", {"numpy"}),
    ("demos", {"numpy", "gapdyn"}),
    ("tests", {"numpy", "gapdyn", "pytest", "hypothesis"}),
])
def test_imports_stay_within_the_dependencies(folder, allowed):
    # gapdyn needs numpy only; demos add gapdyn, and tests add their runners.
    # Tests may not lean on a package that merely happens to be installed.
    # A folder's own modules (tests importing test_golden) are allowed.
    root = _ROOT / folder
    allowed = allowed | set(sys.stdlib_module_names) | {p.stem for p in root.glob("*.py")}
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


def test_library_never_reaches_numpy_random():
    # The Philox words are the package's own uint64 arithmetic
    # (shocks._philox_words), so no module imports numpy.random or reads
    # np.random: a seeded run never pays for loading it.  Tests and the
    # benchmark's oracle still use numpy.random as the reference stream.
    found = []
    for path in sorted(Path(gapdyn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
            elif isinstance(node, ast.Attribute) and _name(node.value) in ("np", "numpy"):
                names = [f"numpy.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name and (name == "numpy.random" or name.startswith("numpy.random."))]
    assert found == []
