import json
import subprocess
import sys
from pathlib import Path

import pytest

from monogen import fixtures, localmono
from monogen.algebra import OrderPresentation
from monogen.cli import main
from monogen.fixtures import corpus_dir, parse_input
from monogen.errors import NotClosedUnderMultiplication, ParseError
from monogen.indexform import IndexForm


# the (input, prime) of each line of artin_golden.jsonl, one "path:prime" a line,
# paths from the root of the checkout; the CI runtime job reads the same file.
# They are every Z fixture of the corpus and the rank-6 trinomial at p <= 7 (the
# trinomial has two-factor fibers of residue degrees (1, 5) and (2, 4)), a few
# larger primes, and x^3 - x^2 + 2 at 2: two factors, one of them not reduced
_CASES_TEXT = (Path(__file__).parent / "artin_golden_cases.txt").read_text(encoding="utf-8")
ARTIN_GOLDEN_CASES = [
    (path, int(p)) for path, _, p in (line.rpartition(":") for line in _CASES_TEXT.splitlines())
]


def fixture_path(name):
    return str(Path(corpus_dir()) / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseInput:
    def test_corpus_fixture(self):
        alg = parse_input(fixture_path("dedekind"))
        assert alg.rank == 3

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            parse_input(bad)

    def test_missing_schema_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ParseError):
            parse_input(bad)

    def test_non_closed_order_reported(self, tmp_path):
        doc = {"order": {"minpoly": [-5, 0, 1], "basis": [["1", "0"], ["0", "1/2"]]}}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NotClosedUnderMultiplication) as err:
            parse_input(path)
        assert "b2*b2" in str(err.value)


class TestCommands:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", fixture_path("gaussian_integers"))
        assert code == 0 and "ok" in out

    def test_validate_reports_violations(self, capsys, tmp_path):
        # e0*e1 = e1 but e1*e0 = 0, and the given 1 = e1 kills both basis elements
        doc = {"algebra": {"base": {"kind": "Z"}, "rank": 2,
                           "constants": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
                           "identity": [0, 1]}}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        violations = [
            "commutativity: c[0][1][1] != c[1][0][1]",
            "identity: 1*e0 != e0",
            "identity: 1*e1 != e1",
        ]
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "".join(f"violated: {v}\n" for v in violations), "")
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert code == 1 and err == ""
        assert out == json.dumps({"ok": False, "violations": violations}) + "\n"

    def test_index_form_text(self, capsys):
        code, out, _ = run(capsys, "index-form", fixture_path("cbrt175"))
        assert code == 0
        assert out.strip() == "5*x2^3 - 7*x3^3"

    def test_index_form_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "index-form", fixture_path("dedekind"), "--json")
        assert code == 0
        from monogen.indexform import index_form

        doc = json.loads(out)
        assert doc["form"] == index_form(parse_input(fixture_path("dedekind"))).form.to_json()

    def test_classify_dedekind(self, capsys):
        code, out, _ = run(
            capsys, "classify", fixture_path("dedekind"), "--height", "10"
        )
        assert code == 0
        assert "NotMonogenic" in out
        assert "common index divisor 2" in out

    def test_classify_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "classify", fixture_path("dedekind"), "--height", "5", "--json"
        )
        doc = json.loads(out)
        assert doc["global"]["status"] == "NotMonogenic"
        assert doc["common_index_divisors"] == [2]
        assert doc["zariski_local"] is False and doc["geometric"] is True

    def test_classify_conductor_five_json(self, capsys, tmp_path):
        # Z + 5*Z[cbrt 2]: 5 is a common index divisor although 5 >= n
        doc = {"order": {"minpoly": [-2, 0, 0, 1], "basis": [[1, 0, 0], [0, 5, 0], [0, 0, 5]]}}
        path = tmp_path / "conductor5.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", str(path), "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["common_index_divisors"] == [5]
        assert report["global"] == {"status": "NotMonogenic", "reason": "common index divisor 5"}

    def test_artin(self, capsys):
        code, out, _ = run(
            capsys, "artin", fixture_path("dedekind"), "--prime", "2", "--json"
        )
        doc = json.loads(out)
        assert len(doc["factors"]) == 3
        assert doc["fiber_monogenic"] is False

    # an F_p algebra at its own prime and at another is pinned by the text golden
    @pytest.mark.parametrize("path", ["tests/cubic_f3t.json", fixture_path("elliptic_chart")])
    def test_artin_refuses_polynomial_bases(self, capsys, path):
        path = Path(__file__).parent.parent / path
        code, _, err = run(capsys, "artin", str(path), "--prime", "3")
        assert code == 1 and err == "error: reduction mod p needs base Z\n"

    def test_search(self, capsys):
        code, out, _ = run(
            capsys, "search", fixture_path("gaussian_integers"), "--height", "1", "--json"
        )
        doc = json.loads(out)
        assert doc["classes"] == [[0, 1]]

    def test_twisted_curve_not_divisible(self, capsys):
        code, out, _ = run(
            capsys,
            "twisted-curve",
            "--degree", "3", "--genus-source", "0", "--genus-target", "0",
        )
        assert code == 0 and "not divisible" in out

    def test_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert "FAIL" not in out

    def test_error_exit_code_with_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, out, err = run(capsys, "classify", str(bad), "--json")
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "ParseError"

    def test_zero_denominator_exit_1(self, capsys, tmp_path):
        doc = {"order": {"minpoly": [-5, 0, 1], "basis": [["1", "0"], ["0", "1/0"]]}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_non_object_order_exit_1(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"order": [1, 2]}))
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_input_exit_1(self, capsys, tmp_path, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b'{"label": "\xff"}')
        code, out, err = run(capsys, "classify", str(path), "--json")
        assert code == 1 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ParseError" and str(path) in doc["message"]

    @pytest.mark.parametrize("command,label", [("classify", ["a"]), ("validate", 5)],
                             ids=["list", "int"])
    def test_non_string_label_exit_1(self, capsys, tmp_path, command, label):
        # a label is printed back as given, so it must be a string
        path = tmp_path / "label.json"
        path.write_text(json.dumps({"label": label, "order": {"minpoly": [1, 0, 1],
                                                              "basis": [[1, 0], [0, 1]]}}))
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ParseError", "message": "label must be a string"}

    def test_fractional_minpoly_coefficient_exit_1(self, capsys, tmp_path):
        # -2.5 must not be read as -2, which would print the index form x2 of Z[sqrt 2]
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"order": {"minpoly": [-2.5, 0, 1], "basis": [[1, 0], [0, 1]]}}))
        code, out, err = run(capsys, "index-form", str(path), "--json")
        assert code == 1 and out == ""
        assert "integers" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize("base,one", [("Z", True), ("ZX", [True])], ids=["Z", "ZX"])
    def test_boolean_ring_element_exit_1(self, capsys, tmp_path, command, base, one):
        # JSON true must not be read as 1: this is Z^2 with every 1 written as true
        zero = 0 if base == "Z" else []
        constants = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
        doc = {"base": {"kind": base}, "rank": 2, "constants": constants, "identity": [one, one]}
        path = tmp_path / "bools.json"
        path.write_text(json.dumps({"algebra": doc}))
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MonogenError",
            "message": f"cannot coerce {one!r} into BaseRing({base})",
        }

    @pytest.mark.parametrize("entry", [True, 0.5], ids=["true", "float"])
    def test_non_rational_basis_entry_exit_1(self, capsys, tmp_path, entry):
        # only ints and "n/d" strings, as to_json writes them: true is not read as 1
        doc = {"order": {"minpoly": [-2, 0, 1], "basis": [[entry, 0], [0, 1]]}}
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "index-form", str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "MonogenError",
            "message": f"basis entries must be integers or 'n/d' strings, got {entry!r}",
        }

    def test_corrupt_corpus_fixture_exit_1(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "bad.json").write_text("{not json")
        monkeypatch.setattr(fixtures, "corpus_dir", lambda: tmp_path)
        code, out, err = run(capsys, "corpus", "--json")
        assert code == 1 and err == ""
        doc = json.loads(out)
        assert doc["failures"] == 1
        [row] = doc["results"]
        assert (row["fixture"], row["check"], row["ok"]) == ("bad", "load", False)
        assert row["detail"].startswith(f"{tmp_path / 'bad.json'}: invalid JSON: ")

    def test_failed_and_unknown_corpus_checks_exit_1(self, capsys, tmp_path, monkeypatch):
        order = {"minpoly": [1, 0, 1], "basis": [[1, 0], [0, 1]]}  # Z[i], discriminant -4
        doc = {"order": order, "expected": {"discriminant": 5, "nonsense": True}}
        (tmp_path / "wrong.json").write_text(json.dumps(doc))
        monkeypatch.setattr(fixtures, "corpus_dir", lambda: tmp_path)
        code, out, err = run(capsys, "corpus", "--json")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["failures"] == 2
        assert [(r["check"], r["ok"], r["detail"]) for r in report["results"]] == [
            ("validate", True, "ok"),
            ("discriminant", False, "got -4, want 5"),
            ("nonsense", False, "error: unknown corpus check 'nonsense'"),
        ]

    @pytest.mark.parametrize("command", ["search", "classify"])
    def test_negative_height_exit_1(self, capsys, command):
        code, out, err = run(capsys, command, fixture_path("gaussian_integers"), "--height", "-1")
        assert code == 1 and out == ""
        assert "height" in err

    def test_classify_negative_height_before_any_work(self, capsys, monkeypatch):
        def no_index_form(alg):
            raise AssertionError("index_form called before the height was checked")

        monkeypatch.setattr(localmono, "index_form", no_index_form)
        code, out, err = run(
            capsys, "classify", fixture_path("dedekind"), "--height", "-1", "--json"
        )
        assert code == 1 and out == ""
        assert "search height must be >= 0, got -1" in err

    def test_classify_content_cube_of_large_prime(self, capsys, tmp_path):
        # Z + p*Z[2^(1/4)], p = 10^9 + 7: the index form has content p^3
        p = 10**9 + 7
        basis = [[1, 0, 0, 0], [0, p, 0, 0], [0, 0, p, 0], [0, 0, 0, p]]
        path = tmp_path / "conductor_large.json"
        path.write_text(json.dumps({"order": {"minpoly": [-2, 0, 0, 0, 1], "basis": basis}}))
        code, out, err = run(capsys, "classify", str(path), "--height", "1", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["common_index_divisors"] == [p]
        assert report["global"] == {"status": "NotMonogenic", "reason": f"common index divisor {p}"}

    def test_classify_conductor_beyond_int32(self, capsys, tmp_path):
        # Z + p*Z[cbrt 2], p = 2147483659 > 2^31: F_p fibers at such p are allowed
        p = 2147483659
        path = tmp_path / "conductor_2_31.json"
        basis = [[1, 0, 0], [0, p, 0], [0, 0, p]]
        path.write_text(json.dumps({"order": {"minpoly": [-2, 0, 0, 1], "basis": basis}}))
        code, out, err = run(capsys, "classify", str(path), "--height", "1", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["common_index_divisors"] == [p]
        assert report["global"] == {"status": "NotMonogenic", "reason": f"common index divisor {p}"}
        assert report["artin_crosscheck"][-1] == {"p": p, "brute": False, "artin": False}

    @pytest.mark.parametrize("name", ["square_zero_rank3", "dual_squares_rank4"])
    def test_classify_zero_index_form(self, capsys, name):
        # Z[x,y]/(x,y)^2 and Z[x,y]/(x^2,y^2): no element generates them over any
        # field, so every prime is a common index divisor and none is listed
        path = str(Path(__file__).with_name(f"{name}.json"))
        assert run(capsys, "validate", path)[0] == 0
        code, out, err = run(capsys, "classify", path, "--height", "2", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["global"] == {"status": "NotMonogenic", "reason": "index form identically zero"}
        assert report["zariski_local"] is False and report["geometric"] is False
        assert report["common_index_divisors"] == report["vanishing_fibers"] == []
        assert report["primes"] == []
        assert report["search"] == {"height": 2, "witnesses": [], "classes": [], "exhausted": True}
        assert report["artin_crosscheck"] == [
            {"p": p, "brute": False, "artin": False} for p in (2, 3, 5, 7)
        ]

    def test_shared_parser_keeps_defaults_between_calls(self, capsys):
        # the parser is built once per process; an option given in one call
        # must not become the default of the next
        path = fixture_path("gaussian_integers")
        heights = []
        for argv in (["--height", "1"], []):
            code, out, _ = run(capsys, "classify", path, "--json", *argv)
            assert code == 0
            heights.append(json.loads(out)["search"]["height"])
        assert heights == [1, 10]

    def test_rank_beyond_cap_refused_before_the_table(self, capsys, tmp_path, monkeypatch):
        def no_table(self, label=""):
            raise AssertionError("the table was built before the rank was checked")

        monkeypatch.setattr(OrderPresentation, "to_algebra", no_table)
        n = 80
        basis = [[int(i == j) for j in range(n)] for i in range(n)]
        path = tmp_path / "rank80.json"
        path.write_text(json.dumps({"order": {"minpoly": [-1, -1] + [0] * (n - 2) + [1],
                                              "basis": basis}}))
        code, out, err = run(capsys, "index-form", str(path))
        assert code == 1 and out == ""
        assert "rank must be in 1..12, got 80" in err

    @pytest.mark.parametrize("command", ["validate", "index-form", "classify"])
    def test_boolean_rank_refused(self, capsys, tmp_path, command):
        # JSON true equals 1 in Python, and must still not pass as a rank
        doc = {"algebra": {"base": {"kind": "Z"}, "rank": True,
                           "constants": [[[1]]], "identity": [1]}}
        path = tmp_path / "bool_rank.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "InvalidAlgebra",
                                   "message": "rank must be in 1..12, got True"}

    def test_singular_order_basis_refused(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({"order": {"minpoly": [-2, 0, 1], "basis": [[1, 2], [2, 4]]}}))
        code, out, err = run(capsys, "classify", str(path), "--json")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "SingularBasisMatrix",
                                   "message": "basis matrix is singular"}

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode,unused", [(["--json"], "text"), ([], "to_json")],
                             ids=["json", "text"])
    def test_only_the_printed_form_is_formatted(self, capsys, monkeypatch, mode, unused):
        def fail(self):
            raise AssertionError(f"IndexForm.{unused} called")

        monkeypatch.setattr(IndexForm, unused, fail)
        code, out, err = run(capsys, "index-form", fixture_path("dedekind"), *mode)
        assert code == 0 and out and err == ""

    def test_enum_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGEN_MAX_ENUM", "2")
        code, _, err = run(capsys, "search", fixture_path("cbrt175"), "--height", "20")
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("raw", ["many", "0", "-5"])
    def test_invalid_enum_cap_env_is_ignored(self, capsys, monkeypatch, raw):
        argv = ("search", fixture_path("gaussian_integers"), "--height", "3")
        monkeypatch.delenv("MONOGEN_MAX_ENUM", raising=False)
        code, want, _ = run(capsys, *argv)
        assert code == 0 and want
        monkeypatch.setenv("MONOGEN_MAX_ENUM", raw)
        assert run(capsys, *argv) == (0, want, f"ignoring invalid MONOGEN_MAX_ENUM={raw!r}\n")


class TestDeterminism:
    def test_corpus_json_matches_golden(self, capsys):
        """The corpus report must not change; regenerate the file only on purpose."""
        golden = Path(__file__).with_name("corpus_golden.json").read_text(encoding="utf-8")
        code, out, _ = run(capsys, "corpus", "--json")
        assert code == 0
        assert out == golden

    def test_corpus_byte_identical(self):
        cmd = [sys.executable, "-m", "monogen.cli", "corpus"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    def test_python_m_monogen(self):
        cmd = [sys.executable, "-m", "monogen", "corpus", "--json"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        golden = Path(__file__).with_name("corpus_golden.json").read_text(encoding="utf-8")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden, "")

    def test_classify_rank_six_matches_golden(self, capsys):
        here = Path(__file__).parent
        golden = (here / "trinomial6_classify_golden.json").read_text(encoding="utf-8")
        code, out, _ = run(
            capsys, "classify", str(here / "trinomial6.json"), "--height", "1", "--json"
        )
        assert code == 0
        assert out == golden

    def test_index_form_rank_six_matches_golden(self, capsys):
        here = Path(__file__).parent
        golden = (here / "trinomial6_index_form_golden.json").read_text(encoding="utf-8")
        code, out, _ = run(capsys, "index-form", str(here / "trinomial6.json"), "--json")
        assert code == 0
        assert out == golden

    def test_artin_matches_golden(self, capsys):
        """Fibers with p below the number of factors, t = 2, nilpotency 3, and
        residue degrees 1, 2 and 3; the idempotents are part of the output."""
        here = Path(__file__).parent
        golden = (here / "artin_golden.jsonl").read_text(encoding="utf-8").splitlines(True)
        assert len(golden) == len(ARTIN_GOLDEN_CASES)
        for (path, p), want in zip(ARTIN_GOLDEN_CASES, golden):
            code, out, _ = run(capsys, "artin", str(here.parent / path), "--prime", str(p), "--json")
            assert code == 0
            assert out == want, (path, p)

    def test_validate_matches_golden(self, capsys):
        """The ten corpus fixtures, then a Z[t] table that breaks two axioms."""
        here = Path(__file__).parent
        golden = (here / "validate_golden.jsonl").read_text(encoding="utf-8").splitlines(True)
        cases = [(p, 0) for p in sorted(Path(corpus_dir()).glob("*.json"))]
        cases.append((here / "invalid_zx_table.json", 1))
        assert len(golden) == len(cases)
        for (path, want_code), want in zip(cases, golden):
            code, out, err = run(capsys, "validate", str(path), "--json")
            assert (code, out, err) == (want_code, want, ""), path.name

    def test_twisted_curve_json(self, capsys):
        code, out, _ = run(capsys, "twisted-curve", "--degree", "3", "--genus-source", "1",
                           "--genus-target", "0", "--json")
        assert code == 0
        assert out == ('{"degree": 3, "genus_source": 1, "genus_target": 0, "triangular": 3, '
                       '"steinitz_degree": -3, "divisible": true, "line_bundle_degree": 1}\n')
        code, out, _ = run(capsys, "twisted-curve", "--degree", "3", "--genus-source", "0",
                           "--genus-target", "0", "--json")
        assert code == 0
        assert out == ('{"degree": 3, "genus_source": 0, "genus_target": 0, "triangular": 3, '
                       '"steinitz_degree": -2, "divisible": false, "line_bundle_degree": null}\n')

    def test_text_matches_golden(self, capsys, monkeypatch):
        """Each argv of cli_text_cases.txt, paths from the root of the checkout: a header,
        stdout, stderr and the exit code, in the format the CI runtime job writes."""
        here = Path(__file__).parent
        monkeypatch.chdir(here.parent)
        cases = (here / "cli_text_cases.txt").read_text(encoding="utf-8").splitlines()
        golden = (here / "cli_text_golden.txt").read_text(encoding="utf-8")
        got = []
        for line in cases:
            code, out, err = run(capsys, *line.split())
            got.append(f"$ monogen {line}\n{out}{err}[exit {code}]\n")
        assert "".join(got) == golden

    def test_classify_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "classify", fixture_path("sqrt2_sqrt3"), "--json")
        _, out2, _ = run(capsys, "classify", fixture_path("sqrt2_sqrt3"), "--json")
        assert out1 == out2


class TestColdStart:
    def test_import_loads_no_heavy_stdlib_module(self):
        """dataclasses pulls in inspect, ast, dis and tokenize, importlib.resources
        pulls in tempfile, shutil, random and zipfile, and pathlib pulls in
        urllib.parse and ipaddress: the CLI imports none of them."""
        src = str(Path(fixtures.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import monogen.cli; "
                "print(sorted({'dataclasses', 'inspect', 'importlib.resources', 'pathlib'}"
                " & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
