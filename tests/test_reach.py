"""Reachability gate: every function of src/monogen runs under some command.

The command-line cases that tier-1 pins (the text golden, the artin and
validate goldens, the rank-6 goldens and the corpus report) run through
cli.main in one fresh interpreter, from the import of monogen on, under a
profile hook; the functions they never enter must be exactly UNREACHED.  A
function that only tests reach fails the gate: delete it, or pin a command
that needs it.  A function that a new pinned case reaches fails it too,
until it leaves the list.

Run from the root of a checkout as `PYTHONPATH=src python tests/test_reach.py`,
it prints the unreached functions as a JSON list.

unreached_lines runs the same cases under a line tracer and returns the
executable lines no case runs.  It is a report, not a gate: most of those
lines are error branches that stay.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Functions no pinned command enters, each with the reason it stays.
UNREACHED = {
    # tools/gen_corpus.py builds and writes fixtures with these
    "algebra.power_basis_algebra",
    "algebra.split_algebra",
    "algebra.StructureAlgebra.to_json",
    "algebra.OrderPresentation.to_json",
    # for debugging and error messages
    "algebra.StructureAlgebra.__repr__",
    "exactring.BaseRing.__repr__",
    "exactring.SparsePoly.__repr__",
    # BaseRing defines __eq__, so it needs __hash__ to stay hashable
    "exactring.BaseRing.__hash__",
    # the index form of a rank-1 algebra
    "exactring.SparsePoly.constant",
}

CO_OPTIMIZED = 0x1  # set on function bodies, not on module or class bodies


def _functions(code, prefix, out):
    """Map the key of each named function under code to its dotted name."""
    for const in code.co_consts:
        if not hasattr(const, "co_code"):
            continue
        name = const.co_name
        if name.startswith("<"):  # comprehensions and lambdas
            _functions(const, prefix, out)
            continue
        if const.co_flags & CO_OPTIMIZED:
            out[(const.co_filename, const.co_firstlineno, name)] = f"{prefix}{name}"
        _functions(const, f"{prefix}{name}.", out)


def library_functions(package):
    """(filename, first line, name) -> module.qualified.name for each module of package."""
    out, folder = {}, os.path.dirname(package.__file__)
    for path in sorted(Path(folder).glob("*.py")):
        # the file name as the import system joins it, as the code objects carry it
        filename = os.path.join(folder, path.name)
        code = compile(path.read_text(encoding="utf-8"), filename, "exec")
        _functions(code, f"{path.stem}.", out)
    return out


def pinned_invocations(corpus_files):
    """The argv of every command-line case a golden pins, paths from ROOT."""
    tests = ROOT / "tests"
    def lines(name):
        return (tests / name).read_text(encoding="utf-8").splitlines()

    cases = [line.split() for line in lines("cli_text_cases.txt")]
    for line in lines("artin_golden_cases.txt"):
        path, _, p = line.rpartition(":")
        cases.append(["artin", path, "--prime", p, "--json"])
    for path in [*corpus_files(), tests / "invalid_zx_table.json"]:
        cases.append(["validate", str(path), "--json"])
    cases.append(["classify", "tests/trinomial6.json", "--height", "1", "--json"])
    cases.append(["index-form", "tests/trinomial6.json", "--json"])
    cases.append(["corpus", "--json"])
    return cases


def run_pinned_cases():
    """Import monogen and run every pinned case through cli.main, output discarded."""
    import monogen
    from monogen import cli
    from monogen.fixtures import corpus_files

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in pinned_invocations(corpus_files):
            cli.main(argv)
    return monogen


def unreached_functions():
    """Import monogen and run every pinned case under a profile hook; return
    the sorted names of the functions that were never entered."""
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(hook)
    try:
        monogen = run_pinned_cases()
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in library_functions(monogen).items() if key not in reached)


def _code_lines(code, out):
    """Add the line numbers that code and the code nested in it execute.

    Line 0 holds a module's entry instruction, which no line event reports.
    """
    out.update(line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            _code_lines(const, out)


def unreached_lines():
    """Import monogen and run every pinned case under a line tracer; return
    {module: sorted executable lines no case ran}, for each module of the
    package that has any."""
    folder = os.path.dirname(importlib.util.find_spec("monogen").origin)
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):  # line events only in the package's own frames
        return lines if os.path.dirname(frame.f_code.co_filename) == folder else None

    sys.settrace(calls)
    try:
        run_pinned_cases()
    finally:
        sys.settrace(None)
    out = {}
    for path in sorted(Path(folder).glob("*.py")):
        filename = os.path.join(folder, path.name)
        executable = set()
        _code_lines(compile(path.read_text(encoding="utf-8"), filename, "exec"), executable)
        missed = sorted(line for line in executable if (filename, line) not in ran)
        if missed:
            out[path.stem] = missed
    return out


def in_child(*args):
    """The JSON that a fresh interpreter prints, given args after its executable.

    The child imports the monogen under test, with nothing imported before
    the hook.
    """
    import monogen

    src = str(Path(monogen.__file__).resolve().parent.parent)
    tests = str(ROOT / "tests")
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_listed_functions_are_unreached():
    assert set(in_child(__file__)) == UNREACHED


def test_line_report_lists_the_lines_no_case_runs():
    from monogen.algebra import split_algebra
    from monogen.search import _check_budget

    run = "import json, test_reach; print(json.dumps(test_reach.unreached_lines()))"
    report = in_child("-c", run)

    def body(function):  # the def line runs with the code that defines the function
        code = function.__code__
        return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}

    # no pinned case builds a split algebra; the budget cases raise in _check_budget
    assert body(split_algebra) <= set(report["algebra"])
    assert not body(_check_budget) & set(report["search"])


if __name__ == "__main__":
    print(json.dumps(unreached_functions()))
