import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import oracles
from generators import change_basis
from toricontact.classify import validate_datum
from toricontact.cli import COMMANDS, main
from toricontact.documents import (
    datum_from_document,
    datum_to_document,
    parse_datum,
    parse_presentation,
    presentation_to_document,
)
from toricontact.reduction import SpherePresentation, synthesize
from toricontact.spheres import weighted_simplex

F = Fraction


def serialize(value) -> str:
    """The JSON document the CLI writes for a datum or a presentation."""
    if isinstance(value, SpherePresentation):
        return json.dumps(presentation_to_document(value), indent=2)
    return json.dumps(datum_to_document(value), indent=2)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io as _io
        import sys

        monkeypatch.setattr(sys, "stdin", _io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocuments:
    def test_datum_round_trip(self):
        for weights in [(1, 1, 1), (1, 2), (2, 3, 5)]:
            d = weighted_simplex(weights)
            assert parse_datum(serialize(d)) == d

    def test_irrational_datum_round_trip(self):
        d = validate_datum(weighted_simplex((1, 2)).polytope, (F(1, 2), 1), mode="irrational")
        assert d.mode == "irrational"
        assert parse_datum(serialize(d)) == d

    def test_presentation_round_trip(self):
        pres = synthesize(weighted_simplex((1, 2)))
        assert parse_presentation(serialize(pres)) == pres

    def test_syntax_error_position(self):
        with pytest.raises(ValueError, match="syntax error at line"):
            parse_datum("{not json")

    def test_nonprimitive_normal_fixit(self):
        doc = {
            "ambient_dim": 2,
            "facets": [
                {"normal": [-2, -4], "label": 3, "offset": "0"},
                {"normal": [0, -1], "label": 1, "offset": "0"},
            ],
            "reeb": [1, 1],
        }
        with pytest.raises(ValueError, match=r"write label 6, normal \(-1, -2\)"):
            parse_datum(json.dumps(doc))

    def test_facet_errors_name_the_facet(self, capsys, monkeypatch):
        facets = [{"normal": [0, -1]}, {"normal": [-1, 0], "label": 0}]
        doc = {"ambient_dim": 2, "facets": facets, "reeb": [1, 1]}
        code, out, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err == "error: facet 1 label must be a positive integer\n"
        facets[1] = {"normal": [0, 0]}
        code, _, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2
        assert err == "error: facet 1 normal is zero\n"

    def test_fractional_reeb_named_condition(self):
        doc = {
            "ambient_dim": 2,
            "facets": [
                {"normal": [-1, 0], "label": 1, "offset": "0"},
                {"normal": [0, -1], "label": 1, "offset": "0"},
            ],
            "reeb": [1, "3/2"],
        }
        with pytest.raises(ValueError, match="not integral"):
            parse_datum(json.dumps(doc))
        # the same document parses in irrational mode
        parse_datum(json.dumps(doc), mode="irrational")

    def test_non_reduced_rational_normalized(self):
        doc = {
            "ambient_dim": 2,
            "facets": [
                {"normal": [-1, 0], "label": 1, "offset": "2/4"},
                {"normal": [1, 0], "label": 1, "offset": "1"},
            ],
            "reeb": [2, 2],
        }
        d = parse_datum(json.dumps(doc))
        assert d.polytope.facets[0].offset == F(1, 2)

    @pytest.mark.parametrize(
        "text", ["1e3", "1E-2", "0.5", ".5", "1_0", " 1", "1 ", " 1_0 ", "+1", "\u0661"]
    )
    def test_rational_outside_the_grammar_refused(self, text):
        # Fraction(str) reads each of these ("\u0661" is an Arabic-Indic 1)
        doc = json.loads(serialize(weighted_simplex((1, 2))))
        doc["facets"][1]["offset"] = text
        with pytest.raises(ValueError) as exc:
            datum_from_document(doc)
        assert str(exc.value) == (
            f"bad rational {text!r} for facet 1 offset: not of the form p/q or p"
        )
        doc["facets"][1]["offset"] = "0"
        doc["reeb"][0] = text
        with pytest.raises(ValueError, match="^bad rational .* for reeb component 0: "):
            datum_from_document(doc)

    @pytest.mark.parametrize(
        "text",
        ["1/0", "-1/0", "1" * 5000, "1/" + "2" * 5000, "-" + "3" * 4301 + "/7"],
        ids=["zero", "negative over zero", "long", "long denominator", "long numerator"],
    )
    def test_rational_in_the_grammar_refused_as_fraction_refuses_it(self, text):
        # the value is built from the matched digits, not by Fraction(str),
        # and the message is the one Fraction(str) gives
        with pytest.raises((ValueError, ZeroDivisionError)) as reference:
            F(text)
        doc = json.loads(serialize(weighted_simplex((1, 2))))
        doc["facets"][1]["offset"] = text
        with pytest.raises(ValueError) as exc:
            datum_from_document(doc)
        assert str(exc.value) == f"bad rational {text!r} for facet 1 offset: {reference.value}"
        if text == "1/0":
            assert str(exc.value) == "bad rational '1/0' for facet 1 offset: Fraction(1, 0)"

    @pytest.mark.parametrize("text, value", [("-3/6", F(-1, 2)), ("007", F(7)), ("-0", F(0))])
    def test_rational_in_the_grammar_read(self, text, value):
        doc = json.loads(serialize(weighted_simplex((1, 1))))
        doc["facets"][0]["offset"] = text
        doc["reeb"][1] = "3/2"
        doc["mode"] = "irrational"
        assert datum_from_document(doc).facets[0].offset == value


class TestPipelines:
    def test_sphere_then_reduce(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["sphere", "--weights", "1,1,1", "--output", "json"])
        assert code == 0
        code, out, _ = run_cli(
            capsys, ["reduce", "--output", "json"], stdin=out, monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 3
        assert doc["weights"] == []
        assert doc["deformation"] == ["1", "1", "1"]

    def test_sphere_then_classify(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "json"])
        assert code == 0
        code, out, _ = run_cli(
            capsys, ["classify", "--output", "json"], stdin=out, monkeypatch=monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["regularity"] == "quasi-regular"
        nontrivial = [f for f in doc["per_face"] if f["holonomy"]["order"] != 1]
        assert len(nontrivial) == 1
        assert nontrivial[0]["holonomy"]["name"] == "C2"

    def test_classify_text_writes_each_sample_point_as_fractions(self, capsys, monkeypatch):
        # the weighted sphere (1, 2, 3) in another lattice basis has negative
        # and non-integral sample points; each printed point is the text of
        # the Fraction face loop's point
        d = change_basis(weighted_simplex((1, 2, 3)), [[1, 0, 0], [-2, 1, 0], [1, 1, 1]])
        expected = oracles.classify(d).per_face
        coords = [x for f in expected for x in f.sample_point]
        assert any(x < 0 for x in coords) and any(x.denominator > 1 for x in coords)
        code, out, _ = run_cli(
            capsys, ["classify", "--output", "text"], stdin=serialize(d), monkeypatch=monkeypatch
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "regularity: quasi-regular"
        assert len(lines) == 1 + len(expected)
        for line, f in zip(lines[1:], expected):
            face = f"facets {sorted(f.face)}" if f.face else "interior"
            point = ", ".join(str(x) for x in f.sample_point)
            assert line == f"  face ({face}): holonomy {f.holonomy}, sample point ({point})"

    def test_slice_matches_weighted_sphere(self, capsys, monkeypatch):
        _, simplex_doc, _ = run_cli(
            capsys, ["sphere", "--weights", "1,1,1", "--output", "json"]
        )
        code, sliced, _ = run_cli(
            capsys,
            ["slice", "--reeb", "1,1,2", "--output", "json"],
            stdin=simplex_doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        _, direct, _ = run_cli(capsys, ["sphere", "--weights", "1,1,2", "--output", "json"])
        assert json.loads(sliced) == json.loads(direct)

    def test_cone_output(self, capsys, monkeypatch):
        _, datum_doc, _ = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "json"])
        code, out, _ = run_cli(
            capsys, ["cone", "--output", "json"], stdin=datum_doc, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["normals"] == [
            {"normal": [1, 0], "label": 2},
            {"normal": [0, 1], "label": 1},
        ]

    def test_validate_echoes_vertices(self, capsys, monkeypatch):
        _, datum_doc, _ = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "json"])
        code, out, _ = run_cli(
            capsys,
            ["validate", "--output", "json", "--emit-vertices"],
            stdin=datum_doc,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["vertices"] == [["0", "1/2"], ["1", "0"]]


class TestVerifyCommand:
    def test_good_presentation(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        pres_file = tmp_path / "pres.json"
        pres_file.write_text(serialize(synthesize(d)))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tampered_presentation_exits_one(self, capsys, monkeypatch, tmp_path):
        from toricontact.polytope import LabeledFacet, LabeledPolytope

        facets = (
            LabeledFacet((-1, 0, 0, 0), 2),
            LabeledFacet((0, -1, 0, 0), 1),
            LabeledFacet((0, 0, -1, 0), 1),
            LabeledFacet((1, 0, 0, -1), 1),
            LabeledFacet((0, 1, 0, -1), 1),
            LabeledFacet((0, 0, 1, -1), 1),
        )
        d = validate_datum(LabeledPolytope(4, facets), (0, 0, 0, 1))
        pres = synthesize(d)
        doc = json.loads(serialize(pres))
        doc["weights"][0][0] += 1
        pres_file = tmp_path / "tampered.json"
        pres_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False

    def test_tampered_deformation_vertex_diff(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        pres = synthesize(d)
        doc = json.loads(serialize(pres))
        doc["deformation"][0] = "3/2"
        pres_file = tmp_path / "tampered.json"
        pres_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        report = json.loads(out)
        assert report["vertex_diff"]


class TestSampleCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sample", "--weights", "1,2,3", "--count", "1000", "--seed", "3",
             "--tol", "1e-9", "--output", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["failures"] == []


class TestErrors:
    def test_bad_json_exit_two(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["validate"], stdin="{oops", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "syntax error" in err

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_semantic_error_exit_two(self, capsys, monkeypatch):
        doc = {
            "ambient_dim": 2,
            "facets": [
                {"normal": [-1, 0], "label": 1, "offset": "0"},
                {"normal": [0, -1], "label": 1, "offset": "0"},
            ],
            "reeb": [1, "3/2"],
        }
        code, _, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2
        assert "not integral" in err

    def test_exponent_offset_exits_two_at_once(self, capsys, monkeypatch):
        # Fraction("1e3000000") builds a 3-million-digit integer first
        doc = json.loads(serialize(weighted_simplex((1, 2))))
        doc["facets"][0]["offset"] = "1e3000000"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.startswith("error: bad rational '1e3000000' for facet 0 offset")
        assert elapsed < 1.0, f"refusal took {elapsed:.2f}s"

    def test_redundant_facet_exit_two(self, capsys, monkeypatch):
        doc = {
            "ambient_dim": 3,
            "facets": [
                {"normal": [-1, 0, 0], "label": 1, "offset": "0"},
                {"normal": [0, -1, 0], "label": 1, "offset": "0"},
                {"normal": [0, 0, -1], "label": 1, "offset": "0"},
                {"normal": [1, 0, 0], "label": 1, "offset": "5"},
            ],
            "reeb": [1, 1, 1],
        }
        for command in ("validate", "classify", "reduce"):
            code, out, err = run_cli(
                capsys, [command], stdin=json.dumps(doc), monkeypatch=monkeypatch
            )
            assert code == 2
            assert not out
            assert "redundant" in err

    def test_empty_cube_exits_two(self):
        # 0 <= x_i and x_i <= -1 at reeb e_12: phase 1 proves the slice empty
        # in a few pivots, where a scan would try C(25, 12) row subsets; the
        # timeout only keeps a regression from hanging the suite
        import os
        import subprocess
        import sys

        import toricontact

        n = 12
        unit = [[int(i == j) for j in range(n + 1)] for i in range(n)]
        doc = {
            "ambient_dim": n + 1,
            "facets": [{"normal": [-x for x in e], "label": 1, "offset": "0"} for e in unit]
            + [{"normal": [*e[:n], 1], "label": 1, "offset": "0"} for e in unit],
            "reeb": [0] * n + [1],
        }
        src = os.path.dirname(os.path.dirname(toricontact.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "toricontact.cli", "validate"],
            input=json.dumps(doc),
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 2
        assert not out.stdout
        assert "empty polytope" in out.stderr

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cross_polytope_not_simple_exit_two(self, capsys, monkeypatch, n):
        # +-x_1 +- ... +- x_n <= 1 at reeb e_(n+1): every vertex is tight on
        # 2^(n-1) facets, and the walk pivots among its bases
        facets = [
            {"normal": [*signs, -1], "label": 1, "offset": "0"}
            for signs in product((-1, 1), repeat=n)
        ]
        doc = {"ambient_dim": n + 1, "facets": facets, "reeb": [0] * n + [1]}
        code, out, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2 and not out
        assert err == "error: polytope not simple\n"

    def test_non_integral_cone_normal_exit_two(self, capsys, monkeypatch):
        # the segment x <= 1/2 at reeb (0, 1): its cone normal (-1, 1/2)
        # would make reduce fail, so validation refuses it up front
        doc = {
            "ambient_dim": 2,
            "facets": [
                {"normal": [1, 0], "label": 1, "offset": "1/2"},
                {"normal": [-1, 0], "label": 1, "offset": "0"},
            ],
            "reeb": [0, 1],
        }
        for command in ("validate", "classify", "reduce"):
            code, out, err = run_cli(
                capsys, [command], stdin=json.dumps(doc), monkeypatch=monkeypatch
            )
            assert code == 2
            assert not out
            assert "not integral: facet 0" in err

    @pytest.mark.parametrize("value", ["12", 5])
    def test_reeb_not_a_list_exit_two(self, capsys, monkeypatch, value):
        # the string "12" used to read as reeb (1, 2); 5 raised TypeError
        doc = json.loads(serialize(weighted_simplex((1, 2))))
        doc["reeb"] = value
        code, out, err = run_cli(
            capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 2
        assert not out
        assert "reeb must be a list" in err

    @pytest.mark.parametrize(
        "field, value", [("deformation", "12"), ("beta", 5), ("weights", 5)]
    )
    def test_presentation_field_not_a_list_exit_two(
        self, capsys, monkeypatch, tmp_path, field, value
    ):
        d = weighted_simplex((1, 2))
        doc = json.loads(serialize(synthesize(d)))
        doc[field] = value
        pres_file = tmp_path / "malformed.json"
        pres_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file)],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert not out
        assert f"{field} must be a list" in err

    def test_presentation_weight_row_count_exit_two(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        doc = json.loads(serialize(synthesize(d)))
        doc["weights"] = [[1, 1]]
        pres_file = tmp_path / "malformed.json"
        pres_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file)],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert not out
        assert "weight row count must be N minus the ambient dimension" in err

    NESTED = "[" * 100_000 + "]" * 100_000

    def test_deeply_nested_stdin_exit_two(self, capsys, monkeypatch):
        # json.loads used to raise RecursionError, which exited 1
        code, out, err = run_cli(capsys, ["validate"], stdin=self.NESTED, monkeypatch=monkeypatch)
        assert code == 2
        assert not out
        assert "nested too deeply" in err

    def test_deeply_nested_presentation_exit_two(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        pres_file = tmp_path / "nested.json"
        pres_file.write_text(self.NESTED)
        code, out, err = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file)],
            stdin=serialize(d),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert not out
        assert "nested too deeply" in err

    def test_bad_slice_reeb_exit_two(self, capsys, monkeypatch):
        _, datum_doc, _ = run_cli(capsys, ["sphere", "--weights", "1,1", "--output", "json"])
        code, _, err = run_cli(
            capsys,
            ["slice", "--reeb", "1,-1"],
            stdin=datum_doc,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "interior of dual cone" in err

    def test_text_and_json_same_content(self, capsys, monkeypatch):
        _, json_out, _ = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "json"])
        _, text_out, _ = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "text"])
        assert "label 2" in text_out
        assert json.loads(json_out)["facets"][0]["label"] == 2

    def test_negative_sample_seed_exit_two(self, capsys):
        # Random(-1) would seed the stream of Random(1)
        code, out, err = run_cli(capsys, ["sample", "--weights", "1,2,3", "--seed", "-1"])
        assert code == 2 and not out
        assert "seed must be a nonnegative integer" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_sample_tol_exit_two(self, capsys, tol):
        # --tol nan reported ok and printed "tol": NaN, which is not JSON;
        # --tol -1 failed every sample and exited 1
        code, out, err = run_cli(capsys, ["sample", "--weights", "1,2,3", "--tol", tol])
        assert code == 2 and not out
        assert "tol must be a finite nonnegative number" in err

    def test_piped_default_is_machine_readable(self, capsys):
        # stdout is not a tty under pytest: the document comes out as JSON
        code, out, _ = run_cli(capsys, ["sphere", "--weights", "1,2"])
        assert code == 0
        assert json.loads(out)["reeb"] == ["1", "2"]


def test_cli_import_leaves_numpy_out():
    # the package has no third-party dependency, so no command pays for one;
    # ``dataclasses`` and the ``inspect`` it pulls in would cost every command.
    # Only what the import adds counts: whatever the interpreter holds before
    # it (a site ``.pth`` may import anything) is not the package's doing
    import os
    import subprocess
    import sys

    import toricontact

    src = os.path.dirname(os.path.dirname(toricontact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys; bare = set(sys.modules); import toricontact.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = set(out.stdout.split())
    assert "toricontact.cli" in added
    assert not added & {"numpy", "dataclasses", "inspect"}


class TestArgv:
    @pytest.mark.parametrize(
        "argv, named",
        [
            ([], "missing command"),
            (["frobnicate"], "'frobnicate'"),
            (["verify", "--pres", "p.json"], "--pres"),  # no prefix abbreviations
            (["sphere", "--weights", "1,2", "--reeb", "1,2"], "--reeb"),
            (["sphere", "--weights", "1,2", "extra"], "'extra'"),
            (["sphere"], "--weights"),
            (["sphere", "--weights"], "--weights"),
            (["sphere", "--weights", "1,2", "--output", "xml"], "--output"),
            (["classify", "--mode=exact"], "--mode"),
            (["sphere", "--weights", "1,a"], "--weights"),
            (["sample", "--weights", "1,2", "--count", "ten"], "--count"),
            (["sample", "--weights", "1,2", "--tol", "small"], "--tol"),
            (["sphere", "--weights", "1,2", "--emit-vertices=yes"], "--emit-vertices"),
        ],
    )
    def test_usage_error_exits_two(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert not captured.out
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: toricontact")
        assert error.startswith("toricontact: error: ") and named in error

    def test_equals_form(self, capsys):
        spaced = run_cli(capsys, ["sphere", "--weights", "1,2", "--output", "text"])
        joined = run_cli(capsys, ["sphere", "--weights=1,2", "--output=text"])
        assert joined == spaced
        assert spaced[0] == 0 and "label 2" in spaced[1]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["slice", "--help"], ["sample", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: toricontact") and not captured.err
        if len(argv) == 1:
            assert all(f"  {name} " in captured.out for name in COMMANDS)
        else:
            assert all(flag in captured.out for flag in COMMANDS[argv[0]][2])

    def test_readme_commands_line_names_the_table(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        line = readme.split("\nCommands: ", 1)[1].split(". ", 1)[0]
        named = [item.split()[0] for item in line.split("`")[1::2]]
        assert named == list(COMMANDS)


def _src_env():
    import toricontact

    src = os.path.dirname(os.path.dirname(toricontact.__file__))
    return dict(os.environ, PYTHONPATH=src)


def _readme_example(command, tmp_path):
    """argv and stdin of the README example of ``command``."""
    datum = serialize(weighted_simplex((1, 2)))
    if command == "sphere":
        return ["sphere", "--weights", "1,2"], ""
    if command == "sample":
        return ["sample", "--weights", "1,2,3", "--count", "10000", "--seed", "1999",
                "--tol", "1e-9"], ""
    if command == "reduce":
        return ["reduce"], serialize(weighted_simplex((1, 1, 1)))
    if command == "slice":
        return ["slice", "--reeb", "1,1,2"], serialize(weighted_simplex((1, 1, 1)))
    if command == "verify":
        pres_file = tmp_path / "presentation.json"
        pres_file.write_text(serialize(synthesize(weighted_simplex((1, 2)))))
        return ["verify", "--presentation", str(pres_file)], datum
    return [command], datum


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_loads_only_its_modules(tmp_path, command):
    # a CLI process compiles the package from source when no bytecode is
    # cached, so a command should import only the code it runs.  ``runpy``
    # is what ``python -m`` runs the module with; only what it adds counts
    argv, stdin = _readme_example(command, tmp_path)
    probe = (
        "import runpy, sys; bare = set(sys.modules); sys.argv[0] = 'toricontact'\n"
        "try:\n    runpy.run_module('toricontact.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n    print(' '.join(sorted(set(sys.modules) - bare)), file=sys.stderr)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], input=stdin, env=_src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    added = set(out.stderr.splitlines()[-1].split())
    assert "toricontact.documents" in added
    assert not added & {"argparse", "gettext", "locale"}
    assert ("toricontact.reduction" in added) == (command in ("reduce", "verify"))
    assert ("toricontact.spheres" in added) == (command in ("sphere", "sample"))
    assert "numpy" not in added


@pytest.mark.parametrize("command", list(COMMANDS))
def test_readme_example_runs_on_the_standard_library_alone(tmp_path, command):
    # ``-S`` leaves site-packages off the path: a missing third-party module
    # would exit 1 with a traceback, which reads as a sampling violation
    argv, stdin = _readme_example(command, tmp_path)
    out = subprocess.run(
        [sys.executable, "-S", "-m", "toricontact.cli", *argv], input=stdin, env=_src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert not out.stderr


@pytest.mark.parametrize(
    "argv",
    [["sphere", "--weights", "1,2"], ["classify"], ["sample", "--weights", "1,2,3"],
     ["--help"], ["sample", "--help"]],
)
def test_closed_stdout_exits_quietly(argv):
    # the reader is gone before the child writes, as in ``... | head``:
    # exit 128 + SIGPIPE with nothing on stderr, not an input error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "toricontact.cli", *argv],
            input=serialize(weighted_simplex((1, 2))), stdout=write_end,
            stderr=subprocess.PIPE, env=_src_env(), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")


# every public name of ``toricontact`` when ``__init__`` imported every module
PACKAGE_EXPORTS = (
    "ClassificationReport FaceInvariants ToricContactDatum classify holonomy "
    "perturb_reeb validate_datum FiniteAbelianGroup hnf "
    "kernel_lattice_basis primitive quotient_group saturate snf LabeledFacet "
    "LabeledPolytope MomentCone Vertex cone_over slice_cone vertices SpherePresentation "
    "VerificationReport build_beta deformation_vector kernel_torus_weights reduced_polytope "
    "synthesize verify_presentation SampleReport convexity_sample_check weighted_simplex "
    "__version__ geometry lattice polytope reduction spheres"
).split()


def test_package_surface_after_a_bare_import():
    probe = (
        "import sys, types, toricontact\n"
        "lazy = {'toricontact.reduction', 'toricontact.spheres'}\n"
        "assert not lazy & set(sys.modules), 'loaded eagerly'\n"
        f"names = {PACKAGE_EXPORTS!r}\n"
        "missing = [n for n in names if not hasattr(toricontact, n)]\n"
        "assert not missing, missing\n"
        "assert not set(names) - set(dir(toricontact))\n"
        "from toricontact.reduction import synthesize\n"
        "assert toricontact.synthesize is synthesize\n"
        "assert isinstance(toricontact.spheres, types.ModuleType)\n"
        "assert not hasattr(toricontact, 'no_such_name')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_classify_stays_the_function_after_importing_reduction():
    probe = (
        "import toricontact, toricontact.reduction, toricontact.spheres\n"
        "from toricontact.classify import classify\n"
        "assert toricontact.classify is classify\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
