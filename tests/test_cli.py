import json

import numpy as np
import pytest

from acbm import fileio
from acbm.cli import main
from acbm.group import validate_group_element
from acbm.structure import canonical_structure
from acbm.tensors import is_structure_tensor, random_structure_tensor


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestClassify:
    def test_lie_family_report(self, tmp_path, capsys):
        lie = write(
            tmp_path,
            "lie.json",
            {
                "n": 1,
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": [0.0, -1.0, -1.0]},
                    {"i": 0, "j": 2, "coeffs": [0.0, -1.0, 1.0]},
                ],
            },
        )
        assert main(["classify", lie]) == 0
        out = capsys.readouterr().out
        assert "F9" in out and "F10" in out
        assert "F0: false" in out

    def test_zero_tensor_is_f0(self, tmp_path, capsys):
        path = write(tmp_path, "zero.json", {"n": 1, "comps": [0.0] * 27})
        assert main(["classify", path]) == 0
        assert "F0: true" in capsys.readouterr().out

    def test_malformed_file_names_missing_field(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"n": 1})
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "comps" in err and "brackets" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == 2

    def test_inadmissible_tensor_exit_3(self, tmp_path, capsys):
        comps = [0.0] * 27
        comps[0] = 1.0  # F(xi, xi, xi) = 1 violates the phi relation
        path = write(tmp_path, "notf.json", {"n": 1, "comps": comps})
        assert main(["classify", path]) == 3
        assert "admissible" in capsys.readouterr().err

    def test_tiny_inadmissible_tensor_exit_3(self, tmp_path, capsys):
        raw = 1e-10 * np.random.default_rng(0).uniform(-1.0, 1.0, size=125)
        path = write(tmp_path, "tiny.json", {"n": 2, "comps": raw.tolist()})
        assert main(["classify", path]) == 3
        assert "admissible" in capsys.readouterr().err
        f = random_structure_tensor(canonical_structure(2), 0)
        path = write(tmp_path, "tiny_ok.json", {"n": 2, "comps": (1e-10 * f.comps).ravel().tolist()})
        assert main(["classify", path]) == 0

    def test_invalid_structure_exit_3(self, tmp_path, capsys):
        doc = {"n": 1, "g": [float(x) for x in np.eye(3).ravel()], "comps": [0.0] * 27}
        path = write(tmp_path, "badg.json", doc)
        assert main(["classify", path]) == 3
        assert "axiom" in capsys.readouterr().err

    def test_jacobi_violation_exit_3(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "brackets": [
                {"i": 0, "j": 1, "coeffs": [0.0, 0.0, 1.0]},
                {"i": 1, "j": 2, "coeffs": [0.0, 1.0, 0.0]},
            ],
        }
        path = write(tmp_path, "nojacobi.json", doc)
        assert main(["classify", path]) == 3
        assert "Jacobi" in capsys.readouterr().err

    def test_ambiguous_document(self, tmp_path, capsys):
        doc = {"n": 1, "comps": [0.0] * 27, "brackets": []}
        path = write(tmp_path, "ambig.json", doc)
        assert main(["classify", path]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_json_format_and_out_file(self, tmp_path):
        lie = write(
            tmp_path,
            "lie.json",
            {"n": 1, "brackets": [{"i": 0, "j": 1, "coeffs": [0.0, -1.0, -1.0]},
                                  {"i": 0, "j": 2, "coeffs": [0.0, -1.0, 1.0]}]},
        )
        out = tmp_path / "report.json"
        assert main(["classify", lie, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["present"] == ["F9", "F10"]
        assert doc["is_F0"] is False
        assert len(doc["magnitudes"]) == 11
        assert doc["tolerances"]["rel_tol"] == 1e-9

    def test_byte_identical_reports(self, tmp_path, capsys):
        path = str(tmp_path / "rand.json")
        assert main(["gen", "random", "--dim", "5", "--seed", "3", "--out", path]) == 0
        outputs = []
        for _ in range(2):
            assert main(["classify", path, "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestGen:
    def test_sphere_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "sphere.json")
        assert main(["gen", "sphere", "--n", "1", "--t", "0", "--out", path]) == 0
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "classes: F4" in out

    def test_liegroup_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "lie.json")
        assert main(["gen", "liegroup", "--n", "1", "--a", "1.0,1.0", "--out", path]) == 0
        assert main(["classify", path]) == 0
        assert "classes: F9 F10" in capsys.readouterr().out

    def test_random_roundtrip_exact(self, tmp_path):
        path = str(tmp_path / "rand.json")
        assert main(["gen", "random", "--dim", "5", "--seed", "7", "--out", path]) == 0
        s, f = fileio.tensor_from_doc(fileio.load_document(path))
        expected = random_structure_tensor(canonical_structure(2), 7)
        # shortest round-trip serialization reproduces the values exactly
        np.testing.assert_array_equal(f.comps, expected.comps)
        assert is_structure_tensor(s, f)

    def test_group_element_validates(self, tmp_path):
        path = str(tmp_path / "group.json")
        assert main(["gen", "group", "--n", "2", "--seed", "1", "--out", path]) == 0
        doc = fileio.load_document(path)
        matrix = np.asarray(doc["matrix"]).reshape(5, 5)
        assert validate_group_element(canonical_structure(2), matrix)

    def test_even_dim_rejected(self, capsys):
        assert main(["gen", "random", "--dim", "4", "--seed", "0"]) == 2

    def test_wrong_parameter_count_rejected(self, capsys):
        assert main(["gen", "liegroup", "--n", "2", "--a", "1.0,2.0"]) == 2

    def test_determinism(self, tmp_path):
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        main(["gen", "random", "--dim", "7", "--seed", "11", "--out", p1])
        main(["gen", "random", "--dim", "7", "--seed", "11", "--out", p2])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestProject:
    def test_component_extraction(self, tmp_path, capsys):
        src = str(tmp_path / "sphere.json")
        main(["gen", "sphere", "--n", "1", "--t", "0.7", "--out", src])
        out = str(tmp_path / "f4.json")
        assert main(["project", src, "--class-index", "4", "--out", out]) == 0
        s, f4 = fileio.tensor_from_doc(fileio.load_document(out))
        # the extracted component classifies as pure F4
        assert main(["classify", out]) == 0
        assert "classes: F4" in capsys.readouterr().out

    def test_block_projection(self, tmp_path, capsys):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "2", "--out", src])
        assert main(["project", src, "--w", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["comps"]) == 125

    def test_requires_exactly_one_selector(self, tmp_path, capsys):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "3", "--seed", "2", "--out", src])
        assert main(["project", src]) == 2
        assert main(["project", src, "--class-index", "4", "--w", "1"]) == 2


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "FAIL" not in out

    def test_dim3_suite_names_vanishing_check(self, capsys):
        assert main(["verify", "--suite", "dim3", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "components 2,3,6,7 vanish" in out

    def test_decomposition_suite_names(self, capsys):
        assert main(["verify", "--suite", "decomposition", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        for name in ("reconstruction", "orthogonality", "idempotency"):
            assert name in out

    def test_group_suite_names(self, capsys):
        assert main(["verify", "--suite", "group", "--seeds", "3"]) == 0
        assert "p_i equivariance" in capsys.readouterr().out


class TestFileFormats:
    def test_nested_arrays_accepted(self, tmp_path):
        s = canonical_structure(1)
        doc = {
            "n": 1,
            "g": s.g.tolist(),
            "phi": s.phi.tolist(),
            "comps": np.zeros((3, 3, 3)).tolist(),
        }
        path = write(tmp_path, "nested.json", doc)
        assert main(["classify", path]) == 0

    def test_dim_only_document(self, tmp_path):
        path = write(tmp_path, "dim.json", {"dim": 3, "comps": [0.0] * 27})
        assert main(["classify", path]) == 0

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"n": 1, "dim": 5, "comps": [0.0] * 27})
        assert main(["classify", path]) == 2

    def test_bracket_lower_triangle_rejected(self, tmp_path, capsys):
        doc = {"n": 1, "brackets": [{"i": 1, "j": 0, "coeffs": [0.0, 0.0, 0.0]}]}
        path = write(tmp_path, "lower.json", doc)
        assert main(["classify", path]) == 2
        assert "antisymmetry" in capsys.readouterr().err

    def test_bracket_index_must_be_integer(self, tmp_path, capsys):
        doc = {"n": 1, "brackets": [{"i": [0], "j": 1, "coeffs": [0.0, 0.0, 0.0]}]}
        path = write(tmp_path, "list_index.json", doc)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "brackets[0].i" in err and "integer" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("n", 1.7), ("n", True), ("n", [1]), ("dim", 3.0)])
    def test_size_fields_must_be_integers(self, tmp_path, capsys, field, value):
        path = write(tmp_path, "bad_n.json", {field: value, "comps": [0.0] * 27})
        assert main(["classify", path]) == 2
        assert f"'{field}' must be an integer" in capsys.readouterr().err

    def test_wrong_comps_length(self, tmp_path, capsys):
        path = write(tmp_path, "short.json", {"n": 1, "comps": [0.0] * 26})
        assert main(["classify", path]) == 2
        assert "comps" in capsys.readouterr().err
