import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acbm
from acbm import decomposition, fileio, tensors, verify
from acbm.cli import EXIT_PIPE_CLOSED, main
from acbm.structure import DEFAULT_RTOL, MAX_DIM, _max_abs, canonical_structure
from acbm.tensors import is_structure_tensor, random_structure_tensor

from conftest import basis_change, push_structure, random_structure


def _must_not_allocate(n):
    raise AssertionError(f"canonical_structure({n}) called for an oversize input")


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

    @pytest.mark.parametrize("doc, message", [
        (None, "cannot read {path}: [Errno 2] No such file or directory"),
        ("directory", "cannot read {path}: [Errno 21] Is a directory"),
        ([1, 2], "{path}: top-level value must be an object"),
        ({"comps": [0.0] * 27}, "missing field: 'n' (or 'dim')"),
        ({"n": 1, "brackets": [1]}, "brackets[0]: expected fields 'i', 'j', 'coeffs'"),
        ({"n": 1, "brackets": [{"i": 0, "j": 1}]}, "brackets[0]: expected fields 'i', 'j', 'coeffs'"),
    ], ids=["missing", "directory", "list", "no-rank", "bracket-not-record", "bracket-without-coeffs"])
    def test_unreadable_or_malformed_document_is_one_line_exit_2(self, tmp_path, capsys, doc, message):
        """A path that cannot be read as a file, a document that is not an object, one with
        neither 'n' nor 'dim', and a bracket record without its three fields: one line, exit 2."""
        path = tmp_path / "doc.json"
        if doc == "directory":
            path.mkdir()
        elif doc is not None:
            path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: " + message.format(path=path)), err

    def test_lie_document_without_brackets_is_refused(self):
        """The CLI routes a document by its 'brackets' field, so only the reader itself sees one without it."""
        with pytest.raises(ValueError, match=r"^missing field: 'brackets'$"):
            fileio.lie_from_doc({"n": 1})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("source", ["comps", "phi"])
    def test_overflowing_document_is_one_line_exit_2(self, tmp_path, capsys, source):
        """A tensor scaled to 1.5e308, or a phi of entries 1e200 whose square
        overflows: the library's one float-range error, exit 2."""
        s = canonical_structure(1)
        f = random_structure_tensor(s, 0)
        if source == "comps":
            f = f / _max_abs(f) * 1.5e308
        doc = fileio.tensor_to_doc(s, f)
        if source == "phi":
            doc["phi"] = (1e200 * s.phi).ravel().tolist()
        path = write(tmp_path, "big.json", doc)
        assert main(["classify", path]) == 2
        assert capsys.readouterr() == (
            "", "error: result overflows the floating-point range (overflow encountered in matmul)\n"
        )

    @pytest.mark.parametrize("content", [b"{not json", b'{"n": 1, "comps": [\xff]}'])
    def test_invalid_json(self, tmp_path, capsys, content):
        """Malformed JSON and bytes that are not UTF-8: one line naming the file."""
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: ")
        assert err.count("\n") == 1

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
        path = write(tmp_path, "tiny_ok.json", {"n": 2, "comps": (1e-10 * f).ravel().tolist()})
        assert main(["classify", path]) == 0

    def test_reconstruction_gate_ignores_tol(self, tmp_path, capsys):
        """--tol sets only the class threshold, not the admissibility or reconstruction gate."""
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "1", "--out", src])
        assert main(["classify", src, "--tol", "1e-20"]) == 0

    def test_tol_does_not_move_the_admissibility_gate(self, tmp_path, capsys):
        """A tensor 1e-7 off the admissible space is refused in the same line by
        classify at any --tol and by project: --tol sets only the class threshold."""
        c = random_structure_tensor(canonical_structure(2), 3).copy()
        c[1, 2, 3] += 1e-7
        path = write(tmp_path, "near.json", {"n": 2, "comps": c.ravel().tolist()})
        outputs = set()
        for argv in (["classify", path, "--tol", "1e-6"], ["classify", path], ["project", path, "--w", "1"]):
            assert main(argv) == 3
            outputs.add(capsys.readouterr())
        ((out, err),) = outputs
        assert out == ""
        assert err.startswith("error: tensor is not an admissible structure tensor:")

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--tol", v, "> 0") for v in ("nan", "inf", "-inf", "0", "-1")],
    )
    def test_refuses_bad_tolerance(self, tmp_path, capsys, flag, value, rule):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "3", "--out", src])
        for fmt in ("text", "json"):
            assert main(["classify", src, f"{flag}={value}", "--format", fmt]) == 2
            error = f"error: {flag} must be a finite number {rule}, got {float(value)}\n"
            assert capsys.readouterr() == ("", error)

    def test_tol_has_no_upper_bound(self, tmp_path, capsys):
        """A component can be larger than its tensor, so no --tol is a safe cap:
        a threshold above every component reports F0 for a nonzero tensor."""
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "3", "--out", src])
        assert main(["classify", src, "--tol", "1e300"]) == 0
        assert "classes: F0" in capsys.readouterr().out

    def test_invalid_structure_exit_3(self, tmp_path, capsys):
        doc = {"n": 1, "g": [float(x) for x in np.eye(3).ravel()], "comps": [0.0] * 27}
        path = write(tmp_path, "badg.json", doc)
        assert main(["classify", path]) == 3
        assert capsys.readouterr().err == (
            "error: structure violates axioms: signature=2.000e+00, b_metric=2.000e+00\n"
        )

    @pytest.mark.parametrize("k", [1e-6, 1e6])
    def test_scaled_basis_keeps_the_classes(self, tmp_path, capsys, k):
        """The canonical n = 2 structure and a random tensor, pushed through k times
        a change of basis, report the classes they report at k = 1."""
        s = canonical_structure(2)
        f = random_structure_tensor(s, 0)
        lines = []
        for scale in (1.0, k):
            t = scale * basis_change(2, 3)
            t_inv = np.linalg.inv(t)
            pushed = np.einsum("abc,ai,bj,ck->ijk", f, t_inv, t_inv, t_inv)
            path = write(tmp_path, f"k{scale}.json", fileio.tensor_to_doc(push_structure(s, t), pushed))
            assert main(["classify", path]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines == ["classes: " + " ".join(f"F{i}" for i in range(1, 12))] * 2

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
        np.testing.assert_array_equal(f, expected)
        assert is_structure_tensor(s, f)
        # a structure 4e-13 off the canonical one is written in full and read back as it is
        g = s.g.copy()
        g[1, 1] += 4e-13
        near = dataclasses.replace(s, g=g)
        back, _ = fileio.tensor_from_doc(json.loads(fileio.dumps(fileio.tensor_to_doc(near, f))))
        for name in ("g", "phi", "xi", "eta"):
            np.testing.assert_array_equal(getattr(back, name), getattr(near, name), err_msg=name)

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["gen", "random", "--dim", "3", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --seed must be an integer >= 0, got -1\n")

    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_non_finite_sphere_parameter_names_the_flag(self, capsys, t):
        assert main(["gen", "sphere", "--n", "1", f"--t={t}"]) == 2
        assert capsys.readouterr() == ("", f"error: --t must be a finite number, got {float(t)}\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("kind", ["sphere", "liegroup"])
    def test_bad_rank_names_the_flag(self, capsys, kind, n):
        extra = {"sphere": ["--t", "0"], "liegroup": ["--a=1"]}[kind]
        assert main(["gen", kind, "--n", n, *extra]) == 2
        assert capsys.readouterr() == ("", f"error: --n must be an integer >= 1, got {n}\n")

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


    def test_oversize_dim_rejected_before_allocating(self, monkeypatch, capsys):
        monkeypatch.setattr("acbm.cli.canonical_structure", _must_not_allocate)
        assert main(["gen", "random", "--dim", "2000000001", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "--dim" in err and f"maximum {MAX_DIM}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["sphere", "liegroup"])
    def test_oversize_n_rejected(self, capsys, kind):
        extra = {"sphere": ["--t", "0"], "liegroup": ["--a", "1,1"]}[kind]
        n = str((MAX_DIM + 1) // 2)
        assert main(["gen", kind, "--n", n, *extra]) == 2
        assert f"maximum {MAX_DIM}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_lie_coefficients_classify(self, tmp_path, capsys):
        path = str(tmp_path / "big.json")
        assert main(["gen", "liegroup", "--n", "1", "--a", "1e200,1e200", "--out", path]) == 0
        assert main(["classify", path]) == 0
        assert "classes: F9 F10" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("source", ["lie 1e308", "lie 5e307", "tensor 1e308"])
    def test_overflow_is_one_line_exit_2(self, tmp_path, capsys, source):
        kind, size = source.split()
        target = tmp_path / "big.json"
        path = str(target)
        if kind == "lie":
            assert main(["gen", "liegroup", "--n", "1", "--a", f"{size},{size}", "--out", path]) == 0
        else:
            s = canonical_structure(2)
            f = random_structure_tensor(s, 1)
            target.write_text(fileio.dumps(fileio.tensor_to_doc(s, f * (float(size) / _max_abs(f)))))
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("params", ["nan,1", "1,inf"])
    def test_non_finite_lie_parameters_rejected(self, capsys, params):
        assert main(["gen", "liegroup", "--n", "1", "--a", params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --a contains non-finite entries\n"

    def test_negative_first_parameter_needs_equals_form(self, tmp_path, capsys):
        path = str(tmp_path / "lie.json")
        assert main(["gen", "liegroup", "--n", "1", "--a=-0.5,1.5", "--out", path]) == 0
        assert main(["classify", path]) == 0
        assert "classes: F9 F10" in capsys.readouterr().out
        assert main(["gen", "liegroup", "--n", "1", "--a", "-0.5,1.5"]) == 2
        assert capsys.readouterr() == ("", "error: argument --a: expected one argument\n")


# Each command that reads a document, with what it prints for the tensor f on s.
_READERS = {
    "classify": (["classify"], lambda s, f: fileio.format_report_text(acbm.classify(s, f))),
    "project-class-index": (
        ["project", "--class-index", "9"], lambda s, f: fileio.dumps(fileio.tensor_to_doc(s, acbm.component(s, f, 9)))
    ),
    "project-w": (["project", "--w", "2"], lambda s, f: fileio.dumps(fileio.tensor_to_doc(s, acbm.project_w(s, f, 2)))),
}


@pytest.mark.parametrize("command, printed", list(_READERS.values()), ids=list(_READERS))
def test_lie_document_is_read_as_its_koszul_tensor(tmp_path, capsys, command, printed):
    """classify and project read a Lie-algebra document as the structure tensor
    of its Levi-Civita connection, and refuse one that breaks the Jacobi identity."""
    src = str(tmp_path / "lie.json")
    assert main(["gen", "liegroup", "--n", "1", "--a", "1.0,1.0", "--out", src]) == 0
    s, c = acbm.lie_family(1, [1.0, 1.0])
    f = acbm.structure_tensor_from_connection(s, acbm.koszul_connection(s, c))
    assert main([command[0], src, *command[1:]]) == 0
    assert capsys.readouterr() == (printed(s, f), "")
    brackets = [{"i": 0, "j": 1, "coeffs": [0.0, 0.0, 1.0]}, {"i": 1, "j": 2, "coeffs": [0.0, 1.0, 0.0]}]
    path = write(tmp_path, "nojacobi.json", {"n": 1, "brackets": brackets})
    assert main([command[0], path, *command[1:]]) == 3
    assert capsys.readouterr() == ("", "error: bracket table violates the Jacobi identity\n")


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
    def test_projected_noise_classifies(self, tmp_path, capsys):
        """`classify` reads what `project` writes: here the F8 component of a pure F9
        tensor in a changed basis, rounding noise that the gate refuses today."""
        s = random_structure(2, 0)
        f9 = decomposition.component(s, random_structure_tensor(s, 0), 9)
        src = tmp_path / "f9.json"
        src.write_text(fileio.dumps(fileio.tensor_to_doc(s, f9)))
        out = str(tmp_path / "f8.json")
        assert main(["project", str(src), "--class-index", "8", "--out", out]) == 0
        assert main(["classify", out]) == 0

    def test_block_projection(self, tmp_path, capsys):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "2", "--out", src])
        assert main(["project", src, "--w", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["comps"]) == 125

    # an index out of range is judged by the library, after the document's own checks
    @pytest.mark.parametrize("selector", [("--class-index", "4"), ("--w", "2"), ("--class-index", "12"), ("--w", "5")])
    def test_inadmissible_tensor_exit_3(self, tmp_path, capsys, selector):
        path = write(tmp_path, "bad.json", {"n": 1, "comps": [float(k) for k in range(1, 28)]})
        assert main(["classify", path]) == 3
        refused = capsys.readouterr().err
        assert main(["project", path, *selector]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", refused)
        assert err.startswith("error: tensor is not an admissible structure tensor:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["classify"], ["project", "--class-index", "4"], ["project", "--w", "2"]])
    def test_admissibility_checked_once(self, tmp_path, monkeypatch, capsys, command):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "5", "--seed", "2", "--out", src])
        calls = []
        original = tensors._membership_residuals
        monkeypatch.setattr(tensors, "_membership_residuals", lambda *a: calls.append(1) or original(*a))
        assert main([command[0], src, *command[1:]]) == 0
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["classify"], ["project", "--w", "1"]])
    @pytest.mark.parametrize("entry", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_comps_exit_2(self, tmp_path, capsys, command, entry):
        comps = [0.0] * 27
        comps[13] = entry  # written as NaN, Infinity or -Infinity
        path = write(tmp_path, "nonfinite.json", {"n": 1, "comps": comps})
        assert main([command[0], path, *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: comps contains non-finite entries\n"

    def test_requires_exactly_one_selector(self, tmp_path, capsys):
        src = str(tmp_path / "rand.json")
        main(["gen", "random", "--dim", "3", "--seed", "2", "--out", src])
        assert main(["project", src]) == 2
        assert main(["project", src, "--class-index", "4", "--w", "1"]) == 2


@pytest.mark.parametrize("argv, error", [
    (["project", "IN", "--class-index", "12"], "class index must be an integer in 1..11, got 12"),
    (["project", "IN", "--w", "5"], "block index must be an integer in 1..4, got 5"),
    (["project", "IN"], "--class-index"),
    (["project", "IN", "--class-index", "2", "--w", "1"], "--class-index"),
    (["gen", "sphere", "--n", "1.5", "--t", "0"], "--n"),
    (["classify"], "input"),
    (["classify", "IN", "--format", "xml"], "--format"),
    (["classify", "IN", "--tol", "small"], "--tol"),
    (["classify", "IN", "--bogus"], "--bogus"),
    (["verify", "--suite", "foo"], "--suite"),
    (["frob"], "frob"),
    ([], "command"),
    (["gen", "group", "--n", "1"], "invalid choice: 'group'"),
    (["gen", "liegroup", "--n", "1", "--a=x,1"], "--a must be comma-separated floats"),
])
def test_refused_command_line_is_one_line_exit_2(tmp_path, capsys, argv, error):
    src = str(tmp_path / "r.json")
    assert main(["gen", "random", "--dim", "3", "--seed", "1", "--out", src]) == 0
    assert main([src if arg == "IN" else arg for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and error in err
    assert "usage:" not in err


def test_help_still_exits_0_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: acbm project")


@pytest.mark.parametrize(
    "command",
    [["gen", "sphere", "--n", "1", "--t", "0"], ["classify", "IN"], ["project", "IN", "--w", "1"]],
)
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_is_one_line_exit_2(tmp_path, capsys, command, target):
    src = str(tmp_path / "r.json")
    assert main(["gen", "random", "--dim", "5", "--seed", "1", "--out", src]) == 0
    out = str(tmp_path / target)
    argv = [src if arg == "IN" else arg for arg in command]
    assert main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--suite", "all", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "FAIL" not in out
        names = ("reconstruction", "projector idempotency", "p_i equivariance", "components 2,3,6,7 vanish")
        assert all(f"  PASS  {name} " in out for name in names)

    @pytest.mark.parametrize("seeds", ["0", "-5"])
    def test_refuses_fewer_than_one_seed(self, capsys, seeds):
        assert main(["verify", "--suite", "dim3", "--seeds", seeds]) == 2
        assert capsys.readouterr() == ("", f"error: --seeds must be an integer >= 1, got {seeds}\n")

    def test_unknown_check_name_raises(self):
        w = verify._Worst({"closure": 1e-9})
        w.add("closure", 0.0)
        with pytest.raises(KeyError, match="closre"):
            w.add("closre", 0.0)

    def test_a_check_that_never_ran_fails(self):
        w = verify._Worst({"closure": 1e-9, "never added": 1e-9})
        w.add("closure", 0.0)
        closure, never = w.results()
        assert closure.passed and closure.worst == 0.0
        assert math.isnan(never.worst) and not never.passed

    def test_every_check_stores_a_value(self, monkeypatch):
        made = []

        class Recorded(verify._Worst):
            def __init__(self, tols):
                super().__init__(tols)
                made.append(self)

        monkeypatch.setattr(verify, "_Worst", Recorded)
        for name in verify.SUITE_NAMES:
            verify.run_suite(name, 1)
        assert len(made) == len(verify.SUITE_NAMES)
        for w in made:
            assert set(w.values) == set(w.tols)

    def test_closure_measures_a_present_component_by_its_own_size(self, monkeypatch):
        """An inadmissible part of 1e-6 of a small component's own size fails
        closure, though it is below 1e-9 of the tensor's size."""
        decompose_many, spoiled = decomposition._decompose_many, []

        def spoil(s, cs):
            stack, magnitudes, residuals = decompose_many(s, cs)
            stack = np.array(stack)
            for f, components in zip(cs, stack):
                scale = _max_abs(f)
                for c in components:
                    size = _max_abs(c)
                    if DEFAULT_RTOL * scale < size < 1e-3 * scale:
                        # horizontal, horizontal, vertical (xi): inside the block
                        # W2 of F4..F9, but not symmetric in the last two slots
                        c[1, 2, 0] += 1e-6 * size
                        spoiled.append(size)
            return stack, magnitudes, residuals

        monkeypatch.setattr(decomposition, "_decompose_many", spoil)
        # seed 17 at n = 1 has an F9 component of 9.0e-5 of |F|
        closure = {check.name: check for check in verify.decomposition_suite(18)}["closure"]
        assert spoiled and not closure.passed

    def test_a_nan_component_fails_closure_and_class_predicates(self, monkeypatch):
        """A NaN in one component of one seed sticks through the batched checks, which
        take np.max over the seeds, and fails them; Python's max would drop it."""
        decompose_many = decomposition._decompose_many

        def with_nan(s, cs):
            stack, magnitudes, residuals = decompose_many(s, cs)
            stack = np.array(stack)
            stack[1, 8, 1, 2, 0] = math.nan  # seed 1, F9
            return stack, magnitudes, residuals

        monkeypatch.setattr(decomposition, "_decompose_many", with_nan)
        checks = {check.name: check for check in verify.decomposition_suite(3)}
        for name in ("closure", "class predicates"):
            assert math.isnan(checks[name].worst) and not checks[name].passed, name

    def test_a_broken_action_is_fail_lines_not_an_error(self, monkeypatch, capsys):
        """An action that pulls the third slot back by (a a)^-1 leaves the admissible
        space. No suite gates its kernel calls, so the group suite reports the defect as
        failed checks, and the CLI prints every line and exits 1 with nothing on stderr."""
        def broken(a, cs):
            ai = np.linalg.inv(a)
            return tensors._pullback(cs, ai, ai, np.linalg.inv(a @ a))

        monkeypatch.setattr(verify, "_act", broken)
        failed = [check.name for check in verify.run_suite("group", 3) if not check.passed]
        assert failed == ["space invariance", "representation homomorphism", "component equivariance"]
        assert main(["verify", "--suite", "group", "--seeds", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "result: FAIL"
        assert err == ""

    @pytest.mark.parametrize("suite, failing", [
        ("decomposition", {
            "reconstruction", "orthogonality", "closure", "class predicates", "projector sum",
            "lee form identities", "involution oracle",
        }),
        ("dim3", {"components 2,3,6,7 vanish", "closed forms match decompose"}),
        ("group", {"space invariance"}),
    ], ids=["decomposition", "dim3", "group"])
    def test_inadmissible_draws_are_failed_checks(self, monkeypatch, suite, failing):
        """Every seed drawn 1e-3 of uniform noise off the admissible space is measured,
        not refused: the suite returns, and the checks its tensors feed fail."""
        def noisy(s, seed):
            noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (s.dim,) * 3)
            return random_structure_tensor(s, seed) + 1e-3 * noise

        monkeypatch.setattr(verify, "_draws", lambda s, seeds: np.stack([noisy(s, seed) for seed in seeds]))
        failed = {check.name for check in verify.run_suite(suite, 3) if not check.passed}
        assert failing <= failed, failing - failed

    def test_an_inadmissible_sphere_tensor_fails_family_membership(self, monkeypatch):
        """The sphere grid's tensors feed `family membership`: 1e-3 of noise on each
        is measured there, where the kernel, which gates nothing, would let it pass."""
        sphere = verify.models.sphere_structure_tensor

        def noisy(n, t):
            s, f = sphere(n, t)
            return s, f + 1e-3 * np.random.default_rng(n).uniform(-1.0, 1.0, f.shape)

        monkeypatch.setattr(verify.models, "sphere_structure_tensor", noisy)
        checks = {check.name: check for check in verify.models_suite(1)}
        assert not checks["family membership"].passed

    @pytest.mark.parametrize("share", [2e-9, 1e-7, 2e-5])
    def test_closure_passes_a_small_present_component(self, monkeypatch, share):
        """A component scaled to a small share of |F| passes closure: the
        rounding that leaks from the rest of F is not measured by its size."""
        drawn = []

        def shrink_f2(s, seed):
            drawn.append(seed)
            f = random_structure_tensor(s, seed)
            if s.n == 1:  # F2 vanishes at n = 1
                return f
            f2 = decomposition.decompose(s, f).components[1]
            rest = f - f2
            return rest + (share * _max_abs(rest) / _max_abs(f2)) * f2

        monkeypatch.setattr(verify, "_draws", lambda s, seeds: np.stack([shrink_f2(s, seed) for seed in seeds]))
        # at 2e-9, seed 1 at n = 3 reports 6.7e-8 when 1e-9 of |F| counts as present
        closure = {check.name: check for check in verify.decomposition_suite(3)}["closure"]
        assert drawn, "the suite no longer draws through tensors._draws"
        assert closure.passed, closure.worst

    def test_closed_pipe_exits_quietly(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        # only sys.stdout is replaced, so pytest's own capture keeps working
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["verify", "--suite", "dim3", "--seeds", "1"]) == EXIT_PIPE_CLOSED
        monkeypatch.undo()
        assert EXIT_PIPE_CLOSED not in (0, 1, 2, 3)
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_process(self):
        # a real pipe whose reader is gone before the first write: the
        # handler must redirect the descriptor, or the flush at interpreter
        # exit raises again and prints a traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _run_child(["verify", "--suite", "dim3", "--seeds", "1"], write_end)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_PIPE_CLOSED
        assert done.stderr == b""

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_unwritable_stdout_is_one_line_exit_2(self, tmp_path, monkeypatch, capsys, command):
        class FullDevice(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        argv = _stdout_command(tmp_path, command)
        monkeypatch.setattr(sys, "stdout", FullDevice())
        assert main(argv) == 2
        monkeypatch.undo()
        error = "error: cannot write standard output: [Errno 28] No space left on device\n"
        assert capsys.readouterr() == ("", error)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_full_device_in_a_process(self, tmp_path, command):
        # as for a closed pipe, the descriptor must be redirected, or the
        # flush at interpreter exit prints "Exception ignored ... OSError"
        with open("/dev/full", "wb") as full:
            done = _run_child(_stdout_command(tmp_path, command), full)
        assert done.returncode == 2
        error = b"error: cannot write standard output: [Errno 28] No space left on device\n"
        assert done.stderr == error


def _stdout_command(tmp_path, command) -> list:
    """An argv of the command that writes its result to standard output."""
    if command == "verify":
        return ["verify", "--suite", "dim3", "--seeds", "1"]
    path = str(tmp_path / "r.json")
    assert main(["gen", "random", "--dim", "5", "--seed", "1", "--out", path]) == 0
    return ["classify", path]


def _run_child(args, stdout, stdin=None) -> subprocess.CompletedProcess:
    """acbm with args in a child process whose standard output is stdout
    and whose standard input, if given, is stdin."""
    env = dict(os.environ, PYTHONPATH=str(Path(acbm.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout to a pipe or a file is by default
    code = "import sys; from acbm.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


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

    @pytest.mark.parametrize(
        "field, value",
        [("comps", ["0.5"] + [0] * 26), ("comps", [True] + [0] * 26), ("xi", [True, False, False]),
         ("brackets", [{"i": 0, "j": 1, "coeffs": {"a": 1}}])],
        ids=["string", "bool-among-integers", "bools", "object"],
    )
    def test_entries_must_be_json_numbers(self, tmp_path, capsys, field, value):
        doc = {"n": 1, "comps": [0] * 27, field: value}
        if field == "brackets":
            del doc["comps"]
        path = write(tmp_path, "not_numbers.json", doc)
        assert main(["classify", path]) == 2
        name = "brackets[0].coeffs" if field == "brackets" else field
        assert capsys.readouterr() == ("", f"error: {name} must be an array of numbers\n")

    def test_integer_entries_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "ints.json", {"n": 1, "xi": [1, 0, 0], "comps": [0] * 27})
        assert main(["classify", path]) == 0
        assert "classes: F0" in capsys.readouterr().out

    def test_canonical_document_reuses_the_canonical_structure(self):
        assert fileio.structure_from_doc({"n": 2}) is canonical_structure(2)
        assert fileio.structure_from_doc({"n": 2, "xi": [1, 0, 0, 0, 0]}) is not canonical_structure(2)

    def test_dim_only_document(self, tmp_path):
        path = write(tmp_path, "dim.json", {"dim": 3, "comps": [0.0] * 27})
        assert main(["classify", path]) == 0

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"n": 1, "dim": 5, "comps": [0.0] * 27})
        assert main(["classify", path]) == 2

    @pytest.mark.parametrize("doc, error", [
        ({"n": 1, "Phi": [0.0] * 9, "comps": [0.0] * 27},
         "unknown field 'Phi'; expected n, dim, g, phi, xi, eta, comps"),
        ({"structure": {"n": 1}, "brackets": []},
         "unknown field 'structure'; expected n, dim, g, phi, xi, eta, brackets"),
        ({"n": 1, "brackets": [{"i": 0, "j": 1, "coeffs": [0.0] * 3, "k": 2}]},
         "brackets[0]: unknown field 'k'; expected i, j, coeffs"),
        ({"n": 1, "comps": [0.0] * 27, "brackets": [], "x": 1},
         "unknown field 'comps'; expected n, dim, g, phi, xi, eta, brackets"),
        ({"n": 1, "brackets": [{"i": 0, "j": 1, "coeffs": [0.0, -1.0, 0.0]},
                               {"i": 0, "j": 1, "coeffs": [0.0, 5.0, 0.0]}]},
         "brackets[1]: repeats the pair (0, 1) of brackets[0]"),
    ], ids=["misspelt", "nested-structure", "bracket-key", "ambiguous", "repeated-pair"])
    def test_fields_outside_the_kind_are_refused(self, tmp_path, capsys, doc, error):
        """A misspelt or nested structure field would fall back to the canonical
        structure, and a repeated bracket pair would keep its last record; each
        exits 2 in one line naming it. A document with "brackets" is a Lie
        algebra, so "comps" beside it is a field outside its kind."""
        assert main(["classify", write(tmp_path, "doc.json", doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("text, error", [
        ("[" * 100_000 + "]" * 100_000, "not valid JSON"),
        # not valid JSON where the decoder's recursion limit is below 5000
        ('{"n": 1, "comps": ' + "[" * 5000 + "0" + "]" * 5000 + "}", ""),
        ('{"n": 1, "comps": [0], "comps": ' + json.dumps([0.0] * 27) + "}",
         "key 'comps' is given twice in one object"),
        ('{"n": 1, "brackets": [{"i": 0, "j": 1, "coeffs": ' + "[" * 50 + "0" + "]" * 50 + "}]}",
         "brackets[0].coeffs must have shape (3,), got (1, 1, "),
        ('{"n": 1, "brackets": {"a": 1}}', "error: 'brackets' must be a list, got dict\n"),
        ('{"n": 1, "g": [0, 0, 0, 0, 0, 0, 0, 0, 0], "comps": ' + json.dumps([0.0] * 27) + "}",
         "error: metric g is singular\n"),
    ], ids=["deep-array", "deep-comps", "repeated-key", "deep-coeffs", "brackets-object", "singular-g"])
    def test_malformed_json_is_one_line(self, tmp_path, capsys, text, error):
        """Nesting too deep for the JSON decoder or for numpy, a key that json
        would read from its last copy, a 'brackets' that is not a list, named
        by the type it has, and a metric g with no inverse each exit 2 in one line."""
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert error in err

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_document_length_limit(self, tmp_path, capsys, extra):
        """A document is read in one bounded read: past MAX_DOCUMENT_CHARS it exits 2
        in one line naming the path and the limit, so an endless input such as
        /dev/zero cannot grow the process until memory runs out."""
        text = '{"n": 1, "comps": ' + json.dumps([0.0] * 27) + "}"
        path = tmp_path / "padded.json"
        path.write_text(text + " " * (fileio.MAX_DOCUMENT_CHARS + extra - len(text)))
        assert main(["classify", str(path)]) == 2 * extra
        err = f"error: {path} is longer than the document limit of {fileio.MAX_DOCUMENT_CHARS} characters\n"
        assert capsys.readouterr().err == (err if extra else "")

    def test_endless_input_is_refused(self, capsys):
        """An input with no end is refused after one bounded read, not read whole."""
        assert main(["classify", "/dev/zero"]) == 2
        err = f"error: /dev/zero is longer than the document limit of {fileio.MAX_DOCUMENT_CHARS} characters\n"
        assert capsys.readouterr() == ("", err)

    def test_document_read_from_a_pipe(self, capsys):
        """`acbm gen liegroup ... | acbm classify /dev/stdin`: a document is read
        from a pipe, whose length is not known before it ends."""
        assert main(["gen", "liegroup", "--n", "2", "--a=0.5,-1,2,0.25"]) == 0
        read_end, write_end = os.pipe()
        os.write(write_end, capsys.readouterr().out.encode())  # well under the pipe's capacity
        os.close(write_end)
        try:
            done = _run_child(["classify", "/dev/stdin"], subprocess.PIPE, stdin=read_end)
        finally:
            os.close(read_end)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[0] == b"classes: F9 F10"

    def test_largest_indented_document_is_read(self, tmp_path):
        """A tensor document at d = MAX_DIM with every structure field, written with
        indent=2 and nested comps, is well inside the length limit."""
        n = (MAX_DIM - 1) // 2
        s = random_structure(n, 0)
        f = -np.random.default_rng(0).uniform(1e-5, 1e-4, (MAX_DIM,) * 3)
        doc = fileio.tensor_to_doc(s, f)
        doc["comps"] = f.tolist()
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(doc, indent=2))
        back, comps = fileio.tensor_from_doc(fileio.load_document(str(path)))
        np.testing.assert_array_equal(comps, f)
        np.testing.assert_array_equal(back.g, s.g)

    def test_bracket_lower_triangle_rejected(self, tmp_path, capsys):
        doc = {"n": 1, "brackets": [{"i": 1, "j": 0, "coeffs": [0.0, 0.0, 0.0]}]}
        path = write(tmp_path, "lower.json", doc)
        assert main(["classify", path]) == 2
        assert "antisymmetry" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_bracket_coefficients_rejected(self, tmp_path, capsys, bad):
        doc = {"n": 1, "brackets": [
            {"i": 0, "j": 1, "coeffs": [0.0, -1.0, 0.0]},
            {"i": 0, "j": 2, "coeffs": [0.0, bad, 0.0]},
        ]}
        path = write(tmp_path, "non_finite.json", doc)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert "brackets[1].coeffs" in err and "non-finite" in err
        assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("doc", [{"n": 10**9, "comps": []}, {"dim": 2 * 10**9 + 1, "comps": []}])
    def test_oversize_document_rejected_before_allocating(self, tmp_path, monkeypatch, capsys, doc):
        monkeypatch.setattr("acbm.fileio.canonical_structure", _must_not_allocate)
        path = write(tmp_path, "huge.json", doc)
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert f"maximum {MAX_DIM}" in err
        assert len(err.strip().splitlines()) == 1

    def test_size_limit_boundary(self):
        n_max = (MAX_DIM - 1) // 2
        assert MAX_DIM >= 17
        assert fileio._resolve_n({"n": n_max}) == n_max
        assert fileio._resolve_n({"dim": MAX_DIM}) == n_max
        with pytest.raises(ValueError):
            fileio._resolve_n({"n": n_max + 1})
        with pytest.raises(ValueError):
            fileio._resolve_n({"dim": MAX_DIM + 2})
