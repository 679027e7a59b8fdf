import json
from fractions import Fraction
from itertools import product

import pytest

from toricontact.cli import main
from toricontact.documents import (
    parse_datum,
    parse_presentation,
    serialize_datum,
    serialize_presentation,
)
from toricontact.reduction import synthesize
from toricontact.spheres import weighted_simplex

F = Fraction


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
            assert parse_datum(serialize_datum(d)) == d

    def test_irrational_datum_round_trip(self):
        from toricontact.classify import rescale

        d = rescale(weighted_simplex((1, 2)), 2)
        assert d.mode == "irrational"
        assert parse_datum(serialize_datum(d)) == d

    def test_presentation_round_trip(self):
        pres = synthesize(weighted_simplex((1, 2)))
        assert parse_presentation(serialize_presentation(pres)) == pres

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
        pres_file.write_text(serialize_presentation(synthesize(d)))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize_datum(d),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tampered_presentation_exits_one(self, capsys, monkeypatch, tmp_path):
        from toricontact.classify import validate_datum
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
        doc = json.loads(serialize_presentation(pres))
        doc["weights"][0][0] += 1
        pres_file = tmp_path / "tampered.json"
        pres_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize_datum(d),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False

    def test_tampered_deformation_vertex_diff(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        pres = synthesize(d)
        doc = json.loads(serialize_presentation(pres))
        doc["deformation"][0] = "3/2"
        pres_file = tmp_path / "tampered.json"
        pres_file.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file), "--output", "json"],
            stdin=serialize_datum(d),
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
        doc = json.loads(serialize_datum(weighted_simplex((1, 2))))
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
        doc = json.loads(serialize_presentation(synthesize(d)))
        doc[field] = value
        pres_file = tmp_path / "malformed.json"
        pres_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file)],
            stdin=serialize_datum(d),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert not out
        assert f"{field} must be a list" in err

    def test_presentation_weight_row_count_exit_two(self, capsys, monkeypatch, tmp_path):
        d = weighted_simplex((1, 2))
        doc = json.loads(serialize_presentation(synthesize(d)))
        doc["weights"] = [[1, 1]]
        pres_file = tmp_path / "malformed.json"
        pres_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys,
            ["verify", "--presentation", str(pres_file)],
            stdin=serialize_datum(d),
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert not out
        assert "weight row count must be N minus the ambient dimension" in err

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

    def test_piped_default_is_machine_readable(self, capsys):
        # stdout is not a tty under pytest: the document comes out as JSON
        code, out, _ = run_cli(capsys, ["sphere", "--weights", "1,2"])
        assert code == 0
        assert json.loads(out)["reeb"] == ["1", "2"]


def test_cli_import_leaves_numpy_out():
    # only ``sample`` needs numpy, so no other command should pay its import;
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
