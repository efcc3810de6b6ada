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
"""

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
    # the fibers of a Z[t] algebra: commands reduce only Z orders mod p
    "exactring.FpX",
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


def unreached_functions():
    """Import monogen and run every pinned case under a profile hook; return
    the sorted names of the functions that were never entered."""
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sink = io.StringIO()
    sys.setprofile(hook)
    try:
        import monogen
        from monogen import cli
        from monogen.fixtures import corpus_files

        with redirect_stdout(sink), redirect_stderr(sink):
            for argv in pinned_invocations(corpus_files):
                cli.main(argv)
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in library_functions(monogen).items() if key not in reached)


def test_only_the_listed_functions_are_unreached():
    import monogen

    # the child imports the monogen under test, with nothing imported before the hook
    src = str(Path(monogen.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == UNREACHED


if __name__ == "__main__":
    print(json.dumps(unreached_functions()))
