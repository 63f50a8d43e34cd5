"""Command-line interface: flags, JSON/CSV outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invarcert.cli import main
from invarcert.geometry import PointCloud, load_points_csv, save_points_csv
from invarcert.numerics import clopper_pearson_lower, std_normal_cdf
from invarcert.orbit import _COST_BLOCK

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def _run_child(*args, warnings="default"):
    # the CLI in a child process: the suite's warning filter does not reach
    # one, and a hang fails at the timeout instead of stalling the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "invarcert.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _write_pair(tmp_path, clean, perturbed):
    a, b = tmp_path / "clean.csv", tmp_path / "perturbed.csv"
    save_points_csv(a, PointCloud(clean))
    save_points_csv(b, PointCloud(perturbed))
    return str(a), str(b)


class TestFixture:
    def test_scaling_scenario_orientation(self, tmp_path, capsys):
        code, doc = _run(
            capsys,
            "fixture", "--scenario", "scaling", "--norm-x", "0.01",
            "--norm-delta", "0.7", "--n-points", "8", "--dim", "2", "--seed", "3",
            "--out-clean", str(tmp_path / "c.csv"),
            "--out-perturbed", str(tmp_path / "p.csv"),
        )
        assert code == 0
        res = doc["results"]
        assert res["norm_x"] == pytest.approx(0.01, rel=1e-12)
        assert res["norm_delta"] == pytest.approx(0.7, rel=1e-12)
        scale = res["norm_x"] * res["norm_delta"]
        assert res["eps1"] / scale == pytest.approx(1.0, abs=1e-10)
        assert res["eps2"] / scale == pytest.approx(0.0, abs=1e-10)

    def test_rotation_scenario_norm_identity(self, tmp_path, capsys):
        theta = 0.8
        code, doc = _run(
            capsys,
            "fixture", "--scenario", "rotation", "--norm-x", "1.5",
            "--theta", str(theta), "--n-points", "6", "--dim", "2", "--seed", "4",
            "--out-clean", str(tmp_path / "c.csv"),
            "--out-perturbed", str(tmp_path / "p.csv"),
        )
        assert code == 0
        expected = 1.5 * math.sqrt(2.0 * (1.0 - math.cos(theta)))
        assert doc["results"]["norm_delta"] == pytest.approx(expected, abs=1e-10)

    # pure rotations lie on the bound |eps| <= |X||Delta| up to rounding,
    # which grows with |X||Delta|; these seeds round above it
    @pytest.mark.parametrize("norm_x,seed", [("1e4", 2), ("1e5", 0), ("1e6", 6)])
    def test_rotation_scenario_large_scale(self, tmp_path, capsys, norm_x, seed):
        code, doc = _run(
            capsys,
            "fixture", "--scenario", "rotation", "--norm-x", norm_x,
            "--norm-delta", str(float(norm_x) / 2), "--dim", "2", "--seed", str(seed),
            "--out-clean", str(tmp_path / "c.csv"),
            "--out-perturbed", str(tmp_path / "p.csv"),
        )
        assert code == 0
        res = doc["results"]
        assert math.hypot(res["eps1"], res["eps2"]) == pytest.approx(
            res["norm_x"] * res["norm_delta"], rel=1e-12
        )

    def test_rotation_scenario_infeasible_norm(self, tmp_path, capsys):
        code = main(
            [
                "fixture", "--scenario", "rotation", "--norm-x", "1.0",
                "--norm-delta", "3.0", "--n-points", "4", "--dim", "2", "--seed", "5",
                "--out-clean", str(tmp_path / "c.csv"),
                "--out-perturbed", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 2

    def test_random_scenario_exact_norm(self, tmp_path, capsys):
        code, doc = _run(
            capsys,
            "fixture", "--scenario", "random", "--norm-x", "2.0",
            "--norm-delta", "0.3123456", "--n-points", "5", "--dim", "3", "--seed", "6",
            "--out-clean", str(tmp_path / "c.csv"),
            "--out-perturbed", str(tmp_path / "p.csv"),
        )
        assert code == 0
        assert doc["results"]["norm_delta"] == pytest.approx(0.3123456, abs=1e-12)

    def test_csv_roundtrip_exact(self, tmp_path, capsys):
        clean_path = tmp_path / "c.csv"
        code = main(
            [
                "fixture", "--scenario", "random", "--norm-x", "1.0",
                "--norm-delta", "0.5", "--n-points", "7", "--dim", "2", "--seed", "7",
                "--out-clean", str(clean_path),
                "--out-perturbed", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 0
        rng = np.random.default_rng(7)
        base = rng.standard_normal((7, 2))
        base *= 1.0 / np.linalg.norm(base)
        assert np.array_equal(load_points_csv(clean_path).data, base)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "random", "--norm-delta", "-0.3"],
            ["--scenario", "scaling", "--norm-delta", "-0.3"],
            ["--scenario", "rotation", "--norm-delta", "-0.3"],
            ["--scenario", "random", "--norm-delta", "0.3", "--n-points", "0"],
            ["--scenario", "scaling", "--norm-delta", "0.3", "--n-points", "-2"],
        ],
        ids=["random", "scaling", "rotation", "zero-points", "negative-points"],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, recwarn, flags):
        code = main(
            [
                "fixture", "--norm-x", "1.0", "--seed", "1", *flags,
                "--out-clean", str(tmp_path / "c.csv"),
                "--out-perturbed", str(tmp_path / "p.csv"),
                "--out", str(tmp_path / "out.json"),
            ]
        )
        captured = capsys.readouterr()
        flag = "--n-points" if "--n-points" in flags else "--norm-delta"
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: must be >= ")
        assert len(recwarn) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "rotation", "--theta", "0.7", "--norm-delta", "0.5"],
            ["--scenario", "scaling", "--theta", "0.7", "--norm-delta", "0.5"],
            ["--scenario", "random", "--theta", "0.7", "--norm-delta", "0.5"],
        ],
        ids=["rotation-with-norm-delta", "scaling", "random"],
    )
    def test_theta_outside_its_use_is_usage_error(self, tmp_path, capsys, flags):
        code = main(
            [
                "fixture", "--norm-x", "1.0", "--seed", "1", *flags,
                "--out-clean", str(tmp_path / "c.csv"),
                "--out-perturbed", str(tmp_path / "p.csv"),
                "--out", str(tmp_path / "out.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --theta: ")
        assert list(tmp_path.iterdir()) == []


class TestCertify:
    def test_identical_pair_both_methods(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 2)) * 0.3
        clean, perturbed = _write_pair(tmp_path, data, data)
        code, doc = _run(
            capsys,
            "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--method", "both",
            "--n2", "2000", "--n3", "2000",
        )
        assert code == 0
        res = doc["results"]
        assert res["orbit"]["certified"] is True
        assert res["orbit"]["residual"] == pytest.approx(0.0, abs=1e-12)
        assert res["tight"]["certified"] is True

    def test_deterministic_output(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 2)) * 0.3
        clean, perturbed = _write_pair(tmp_path, data, data + 0.1)
        args = [
            "certify", "--group", "SE", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.5", "--p-lower", "0.85", "--seed", "9", "--method", "both",
            "--n2", "1000", "--n3", "1000",
        ]
        _, doc_a = _run(capsys, *args)
        _, doc_b = _run(capsys, *args)
        doc_a.pop("generated_at")
        doc_b.pop("generated_at")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_3d_quadrature_path_deterministic(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((5, 3)) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data + 0.05 * rng.standard_normal((5, 3)))
        args = [
            "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.4", "--p-lower", "0.8", "--seed", "21", "--method", "tight",
            "--n2", "500", "--n3", "500", "--alpha", "0.01",
        ]
        _, doc_a = _run(capsys, *args)
        _, doc_b = _run(capsys, *args)
        doc_a.pop("generated_at")
        doc_b.pop("generated_at")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert doc_a["results"]["tight"]["method"] == "tight-SO3"

    def test_tight_unsupported_group(self, tmp_path, capsys):
        data = np.eye(2)
        clean, perturbed = _write_pair(tmp_path, data, data)
        code = main(
            [
                "certify", "--group", "S", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--method", "tight",
            ]
        )
        assert code == 2

    def test_malformed_csv_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0\n")
        good = tmp_path / "good.csv"
        save_points_csv(good, PointCloud(np.eye(2)))
        code = main(
            [
                "certify", "--group", "T", "--clean", str(bad), "--perturbed", str(good),
                "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--clean" in err

    def test_shape_mismatch(self, tmp_path, capsys):
        clean = tmp_path / "c.csv"
        perturbed = tmp_path / "p.csv"
        save_points_csv(clean, PointCloud(np.eye(2)))
        save_points_csv(perturbed, PointCloud(np.ones((3, 2))))
        code = main(
            [
                "certify", "--group", "T", "--clean", str(clean),
                "--perturbed", str(perturbed), "--sigma", "0.5",
                "--p-lower", "0.8", "--seed", "1",
            ]
        )
        assert code == 2

    def test_classifier_source(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((4, 2)) * 0.1
        clean, perturbed = _write_pair(tmp_path, data, data * 1.05)
        code, doc = _run(
            capsys,
            "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.3", "--classifier", "centered-norm", "--tau", "2.0",
            "--n1", "2000", "--seed", "11", "--method", "orbit",
        )
        assert code == 0
        assert doc["results"]["classifier_label"] == 1
        assert 0.9 < doc["results"]["p_lower"] < 1.0

    def test_multiclass_requires_p_upper(self, tmp_path, capsys):
        data = np.eye(2)
        clean, perturbed = _write_pair(tmp_path, data, data)
        code = main(
            [
                "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--multiclass",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("source", [["--p-lower", "0.8"], ["--classifier", "norm"]])
    def test_p_upper_requires_multiclass(self, tmp_path, capsys, monkeypatch, source):
        import invarcert.cli as cli_mod

        def unexpected(*args, **kwargs):
            raise AssertionError("classifier ran before --p-upper was checked")

        monkeypatch.setattr(cli_mod, "smooth_predict", unexpected)
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        out = tmp_path / "out.json"
        code = main(
            [
                "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--seed", "1", "--method", "orbit", *source,
                "--p-upper", "0.1", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --p-upper: requires --multiclass\n"
        assert not out.exists()

    def test_classifier_not_with_p_lower(self, tmp_path, capsys, monkeypatch):
        import invarcert.cli as cli_mod

        def unexpected(*args, **kwargs):
            raise AssertionError("classifier ran although --p-lower was given")

        monkeypatch.setattr(cli_mod, "smooth_predict", unexpected)
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        out = tmp_path / "out.json"
        code = main(
            [
                "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--seed", "1", "--p-lower", "0.8",
                "--classifier", "norm", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --classifier: not with --p-lower\n"
        assert not out.exists()

    def test_classifier_choices_are_the_oracle_table(self):
        from invarcert.cli import _PARSER
        from invarcert.oracles import CLASSIFIER_GROUPS

        commands = _PARSER._subparsers._group_actions[0].choices
        for command in ("certify", "smooth-predict"):
            (action,) = [a for a in commands[command]._actions if a.dest == "classifier"]
            assert tuple(action.choices) == tuple(CLASSIFIER_GROUPS)
        assert tuple(CLASSIFIER_GROUPS) == ("norm", "centered-norm", "pairwise-centroid")

    def test_multiclass_verdict(self, tmp_path, capsys):
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        code, doc = _run(
            capsys,
            "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.5", "--p-lower", "0.8", "--p-upper", "0.1",
            "--seed", "1", "--multiclass", "--method", "orbit",
        )
        assert code == 0
        assert doc["results"]["multiclass"]["certified"] is True

    @pytest.mark.parametrize(
        "flags",
        [
            ["--p-lower", "1.5"],
            ["--p-lower", "-0.1"],
            ["--p-lower", "nan", "--method", "tight"],
            ["--p-lower", "inf"],
            ["--p-lower", "0.9", "--p-upper", "-3", "--multiclass"],
            ["--p-lower", "0.9", "--p-upper", "nan", "--multiclass"],
        ],
    )
    def test_probability_outside_unit_interval_is_usage_error(self, tmp_path, capsys, flags):
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        code = main(
            [
                "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--seed", "1", "--n2", "200", "--n3", "200", *flags,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be a probability" in captured.err

    def test_probability_bounds_inclusive(self, tmp_path, capsys):
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        code, doc = _run(
            capsys,
            "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.5", "--seed", "1", "--method", "orbit",
            "--p-lower", "1.0", "--p-upper", "0.0", "--multiclass",
        )
        assert code == 0
        assert doc["results"]["orbit"]["notes"] == ["p-lower-clamped"]

    @pytest.mark.parametrize("flags", [["--alpha", "0.7"], ["--n2", "10"]])
    def test_bad_mc_config_fails_before_classifier(self, tmp_path, capsys, monkeypatch, flags):
        import invarcert.cli as cli_mod

        def unexpected(*args, **kwargs):
            raise AssertionError("classifier ran before McConfig was checked")

        monkeypatch.setattr(cli_mod, "smooth_predict", unexpected)
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        code = main(
            [
                "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--seed", "1", "--classifier", "norm", *flags,
            ]
        )
        assert code == 2
        assert "McConfig" in capsys.readouterr().err

    def test_n1_below_floor_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import invarcert.cli as cli_mod

        def unexpected(*args, **kwargs):
            raise AssertionError("classifier ran before --n1 was checked")

        monkeypatch.setattr(cli_mod, "smooth_predict", unexpected)
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        out = tmp_path / "out.json"
        code = main(
            [
                "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--seed", "1", "--classifier", "norm", "--n1", "50",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "--n1" in capsys.readouterr().err
        assert not out.exists()

    def test_se3_multiclass_draws_once(self, tmp_path, capsys, monkeypatch):
        # the tight and both multiclass stages read one clean and one
        # perturbed sample: the pair is drawn once, and the statistic runs
        # on each row at most once, on fewer than n2 + n3 rows in all
        import invarcert.mc as mc_mod
        from invarcert.tight import LikelihoodStatistic

        draws, rows = [], []
        real_call = LikelihoodStatistic.__call__
        real_sample = mc_mod.sample_gaussian

        def counting_call(self, samples):
            rows.append(np.atleast_2d(samples).copy())
            return real_call(self, samples)

        def counting_sample(mean, count, rng, factor):
            draws.append(count)
            return real_sample(mean, count, rng, factor)

        monkeypatch.setattr(LikelihoodStatistic, "__call__", counting_call)
        monkeypatch.setattr(mc_mod, "sample_gaussian", counting_sample)
        rng = np.random.default_rng(52)
        data = rng.standard_normal((6, 3))
        clean, perturbed = _write_pair(tmp_path, data, data + 0.1 * rng.standard_normal((6, 3)))
        code, doc = _run(
            capsys, "certify", "--group", "SE", "--method", "both", "--multiclass",
            "--clean", clean, "--perturbed", perturbed, "--sigma", "0.5",
            "--p-lower", "0.9", "--p-upper", "0.05", "--seed", "1", "--n2", "300", "--n3", "200",
        )
        assert code == 0
        assert draws == [300, 200]
        evaluated = np.concatenate(rows)
        assert len(np.unique(evaluated, axis=0)) == len(evaluated) < 300 + 200
        results = doc["results"]
        assert results["multiclass"]["bound_value"] == results["tight"]["bound_value"]

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import invarcert.tight as tight_mod
        from invarcert.tight import LikelihoodStatistic

        def broken_rho():
            return LikelihoodStatistic(dim=4, evaluator=lambda q: np.full(q.shape[0], np.nan))

        monkeypatch.setattr(tight_mod, "rho_so2", broken_rho)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 2)) * 0.3
        clean, perturbed = _write_pair(tmp_path, data, data + 0.05)
        code = main(
            [
                "certify", "--group", "SO", "--clean", clean, "--perturbed", perturbed,
                "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--method", "tight",
                "--n2", "1000", "--n3", "1000",
            ]
        )
        assert code == 3


class TestInputFiles:
    """Each input file is read once per call, and the manifest digests the
    bytes that were parsed."""

    COMMANDS = {
        "certify": ["certify", "--group", "SO", "--sigma", "0.5", "--p-lower", "0.9",
                    "--seed", "1", "--n2", "200", "--n3", "200"],
        "project": ["project", "--group", "SE"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_input_opened_once(self, tmp_path, capsys, monkeypatch, command):
        import builtins

        rng = np.random.default_rng(50)
        data = rng.standard_normal((5, 2))
        clean, perturbed = _write_pair(tmp_path, data, data + 0.1)
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        code, doc = _run(capsys, *self.COMMANDS[command], "--clean", clean, "--perturbed", perturbed)
        monkeypatch.undo()
        assert code == 0
        assert opened.count(clean) == opened.count(perturbed) == 1
        for flag, path in (("clean", clean), ("perturbed", perturbed)):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert doc["manifest"]["inputs"][flag] == {"path": path, "sha256": digest}

    def test_digest_is_of_bytes_parsed(self, tmp_path, capsys, monkeypatch):
        import invarcert.cli as cli_mod

        data = np.eye(2) * 0.3
        clean, perturbed = _write_pair(tmp_path, data, data + 0.05)
        with open(clean, "rb") as fh:
            parsed = fh.read()
        load = cli_mod.load_points_csv

        def load_then_rewrite(path, *args):
            cloud = load(path, *args)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("9.0,9.0\n9.0,9.0\n")
            return cloud

        monkeypatch.setattr(cli_mod, "load_points_csv", load_then_rewrite)
        code, doc = _run(capsys, *self.COMMANDS["project"], "--clean", clean, "--perturbed", perturbed)
        assert code == 0
        assert doc["manifest"]["inputs"]["clean"]["sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        data = np.random.default_rng(51).standard_normal((4, 2))
        clean, perturbed = _write_pair(tmp_path, data, data + 0.2)
        with open(clean, "rb") as fh:
            plain = fh.read()
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain)
        docs = []
        for path in (clean, str(bom)):
            code, doc = _run(capsys, *self.COMMANDS["certify"], "--clean", path, "--perturbed", perturbed)
            assert code == 0
            docs.append(doc)
        assert docs[0]["results"] == docs[1]["results"]
        assert docs[1]["manifest"]["inputs"]["clean"]["sha256"] == hashlib.sha256(
            bom.read_bytes()
        ).hexdigest()


class TestNonFinite:
    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "--group", "SO", "--sigma", "inf", "--p-lower", "0.9"],
            ["certify", "--group", "SO", "--sigma", "nan", "--p-lower", "0.9"],
            ["certify", "--group", "SO", "--sigma", "0.5", "--classifier", "norm", "--tau", "nan"],
            ["smooth-predict", "--classifier", "norm", "--sigma", "nan"],
            ["smooth-predict", "--classifier", "norm", "--sigma", "0.5", "--tau=-inf"],
            ["pmin-grid", "--group", "SO2", "--norm-x", "inf", "--norm-delta", "0.3",
             "--sigma", "0.5", "--resolution", "4"],
            ["pmin-grid", "--group", "SO2", "--norm-x", "0.4", "--norm-delta", "nan",
             "--sigma", "0.5", "--resolution", "4"],
            ["pmin-grid", "--group", "blackbox", "--norm-x", "0.4", "--norm-delta", "0.3",
             "--sigma", "inf", "--resolution", "4"],
            ["fixture", "--scenario", "scaling", "--norm-x", "nan", "--norm-delta", "0.3"],
            ["fixture", "--scenario", "random", "--norm-x", "1.0", "--norm-delta", "inf"],
            ["fixture", "--scenario", "rotation", "--norm-x", "1.0", "--theta", "nan"],
        ],
    )
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        clean, perturbed = _write_pair(tmp_path, np.eye(2) * 0.2, np.eye(2) * 0.3)
        files = {
            "certify": ["--clean", clean, "--perturbed", perturbed, "--out", "out.json"],
            "smooth-predict": ["--input", clean, "--out", "out.json"],
            "pmin-grid": ["--out-csv", "grid.csv", "--out-json", "out.json"],
            "fixture": ["--out-clean", "c.csv", "--out-perturbed", "p.csv", "--out", "out.json"],
        }[command[0]]
        code = main([*command, *files, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be a finite number" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv", "perturbed.csv"]

    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "--group", "SO", "--clean", "x.csv", "--perturbed", "x.csv",
             "--p-lower", "0.9"],
            ["smooth-predict", "--classifier", "norm", "--input", "x.csv"],
            ["pmin-grid", "--group", "SO2", "--norm-x", "0.4", "--norm-delta", "0.3",
             "--resolution", "4", "--out-csv", "grid.csv"],
        ],
    )
    @pytest.mark.parametrize("sigma", ["0", "-0.5"])
    def test_non_positive_sigma_is_usage_error(self, tmp_path, capsys, monkeypatch, command, sigma):
        monkeypatch.chdir(tmp_path)
        save_points_csv(tmp_path / "x.csv", PointCloud(np.eye(2)))
        code = main([*command, "--sigma", sigma, "--seed", "1"])
        assert code == 2
        assert "--sigma: must be > 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    # 2-D clouds certify at 1e-150 and 1e300, 3-D clouds at 1e300 (the orbit
    # floor, within 1e-9 of p); every other case leaves sigma^2 underflowed,
    # a reduced-problem entry overflowed, the 3-D statistic's error estimate
    # refused or, for pmin-grid at 1e-154 and 1.1e-154, the covariance factor
    # overflowed (its eigenvalues, not the symmetrization, which does not
    # overflow on finite entries)
    @pytest.mark.parametrize(
        "sigma", ["1e-300", "1e-170", "1e-160", "1e-154", "1.1e-154", "1e-150", "1e300"]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["certify", "--group", "SO", "--clean", "c2.csv", "--perturbed", "p2.csv"],
            ["certify", "--group", "SE", "--clean", "c2.csv", "--perturbed", "p2.csv"],
            ["certify", "--group", "SO", "--clean", "c3.csv", "--perturbed", "p3.csv"],
            ["certify", "--group", "SE", "--clean", "c3.csv", "--perturbed", "p3.csv"],
            ["pmin-grid", "--group", "SO2", "--norm-x", "1.0", "--norm-delta", "0.5",
             "--resolution", "3", "--out-csv", "grid.csv"],
        ],
        ids=["SO2", "SE2", "SO3", "SE3", "pmin-SO2"],
    )
    def test_extreme_sigma_is_numerical_failure(self, tmp_path, capsys, monkeypatch, command,
                                                sigma):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(36)
        for dim in (2, 3):
            data = rng.standard_normal((6, dim))
            moved = data + 0.1 * rng.standard_normal((6, dim))
            save_points_csv(tmp_path / f"c{dim}.csv", PointCloud(data))
            save_points_csv(tmp_path / f"p{dim}.csv", PointCloud(moved))
        flags = [] if command[0] == "pmin-grid" else ["--p-lower", "0.9"]
        code = main([*command, *flags, "--sigma", sigma, "--seed", "1",
                     "--n2", "100", "--n3", "100", "--alpha", "0.01"])
        captured = capsys.readouterr()
        fails = float(sigma) < (1e-105 if "c3.csv" in command else 1e-153)
        assert code == (3 if fails else 0)
        if fails:
            assert f"reduced problem at sigma={float(sigma)!r}" in captured.err

    def test_non_finite_result_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        import invarcert.cli as cli_mod

        monkeypatch.setattr(cli_mod, "smooth_predict", lambda *args: (0, math.nan))
        clean, _ = _write_pair(tmp_path, np.eye(2), np.eye(2))
        out = tmp_path / "out.json"
        code = main(
            [
                "smooth-predict", "--classifier", "norm", "--input", clean,
                "--sigma", "0.5", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 3
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["project", "--group", group] for group in ("SO", "O", "SE", "SxSE")]
        + [["certify", "--group", "SO", "--method", "orbit", "--sigma", "1",
            "--p-lower", "0.9", "--seed", "1"]],
        ids=["project-SO", "project-O", "project-SE", "project-SxSE", "certify-SO"],
    )
    def test_overflowing_procrustes_is_numerical_failure(self, tmp_path, command):
        # a finite coordinate of 1e200 overflows (X')^T X, and LAPACK's SVD of
        # a matrix holding an inf does not return, hence the child's timeout
        data = np.random.default_rng(0).standard_normal((4, 3))
        data[0, 0] = 1e200
        cloud, out = tmp_path / "cloud.csv", tmp_path / "out.json"
        save_points_csv(cloud, PointCloud(data))
        proc = _run_child(
            *command, "--clean", str(cloud), "--perturbed", str(cloud), "--out", str(out)
        )
        assert proc.returncode == 3, proc.stderr
        assert "Procrustes: the cross matrix (X')^T X is not finite" in proc.stderr
        assert not out.exists()

    def test_overflowing_assignment_cost_keeps_the_finite_assignment(self, tmp_path, capsys):
        # (1e200 - x)^2 overflows to inf, which the solver never assigns, and
        # raises no RuntimeWarning (the suite makes one an error); the
        # identity assignment stays finite and gives the exact residual 0
        data = np.random.default_rng(0).standard_normal((4, 3))
        data[0, 0] = 1e200
        cloud = tmp_path / "cloud.csv"
        save_points_csv(cloud, PointCloud(data))
        code, doc = _run(
            capsys, "project", "--group", "S", "--clean", str(cloud), "--perturbed", str(cloud)
        )
        assert code == 0
        assert doc["results"]["residual"] == 0.0
        assert doc["results"]["transform"]["permutation"] == [0, 1, 2, 3]

    def test_overflowing_assignment_cost_is_numerical_failure(self, tmp_path, capsys):
        # every assignment pairs +-1e200 with a point 1e200 away or more
        clean, perturbed = _write_pair(
            tmp_path, np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[-1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        out = tmp_path / "out.json"
        code = main(["project", "--group", "S", "--clean", clean, "--perturbed", perturbed,
                     "--out", str(out)])
        assert code == 3
        assert "assignment: every assignment's cost overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_assignment_cost_past_the_first_block(self, tmp_path, capsys):
        # the cost's later planes are squared a row block at a time: put the
        # overflow in plane 1 of a row past the first block, and check that
        # it raises no RuntimeWarning there either (the suite makes one an
        # error), that the finite identity assignment is kept, and that a
        # pair where that row meets an overflow in every assignment exits 3
        n, row = 300, 299
        assert row >= _COST_BLOCK // n
        data = np.random.default_rng(1).standard_normal((n, 3))
        spiked = data.copy()
        spiked[row, 1] = 1e200
        clean, perturbed = _write_pair(tmp_path, data, spiked)
        code, doc = _run(
            capsys, "project", "--group", "S", "--clean", perturbed, "--perturbed", perturbed
        )
        assert code == 0
        assert doc["results"]["residual"] == 0.0
        assert doc["results"]["transform"]["permutation"] == list(range(n))
        code = main(["project", "--group", "S", "--clean", clean, "--perturbed", perturbed])
        assert code == 3
        assert "assignment: every assignment's cost overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    @pytest.mark.parametrize("group", ["T", "SxSE"])
    def test_overflowing_norm_falls_back_to_a_scaled_norm(self, tmp_path, group, warnings):
        # ||X' - X||^2 overflows although ||X' - X|| is finite
        clean, perturbed = _write_pair(
            tmp_path, np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[-1e200, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        out = tmp_path / "out.json"
        proc = _run_child(
            "project", "--group", group, "--clean", clean, "--perturbed", perturbed,
            "--out", str(out), warnings=warnings,
        )
        assert "RuntimeWarning" not in proc.stderr
        if group == "T":
            assert proc.returncode == 0, proc.stderr
            # sqrt(2) * 1e200, correctly rounded
            assert json.loads(out.read_text())["results"]["residual"] == math.hypot(1e200, 1e200)
        else:
            assert proc.returncode == 3, proc.stderr
            assert "assignment: every assignment's cost overflows" in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("warnings", ["default", "error::RuntimeWarning"])
    @pytest.mark.parametrize(
        "command, clean, perturbed, message",
        [
            (["project", "--group", group], [[-1e308, 0, 0], [0, 0, 0]],
             [[1e308, 0, 0], [0, 0, 0]], "the difference X' - X is not finite")
            for group in ("T", "SxSE")
        ] + [
            (["certify", "--group", "T", "--sigma", "1", "--p-lower", "0.9", "--seed", "1",
              "--method", "both", "--multiclass", "--p-upper", "0.05"],
             [[-1e308, 0, 0], [0, 0, 0]], [[1e308, 0, 0], [0, 0, 0]],
             "the difference X' - X is not finite"),
            # each difference is finite, their column sum is not
            (["project", "--group", "T"], [[0, 0, 0], [0, 0, 0]],
             [[1e308, 0, 0], [1e308, 0, 0]], "X' - X minus its mean is not finite"),
            # the mean is finite, one difference minus it is not
            (["project", "--group", "T"], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
             [[1.7e308, 0, 0], [-1.7e308, 0, 0], [-1.7e308, 0, 0]],
             "X' - X minus its mean is not finite"),
        ],
    )
    def test_overflowing_difference_is_numerical_failure(
        self, tmp_path, command, clean, perturbed, message, warnings
    ):
        clean, perturbed = _write_pair(tmp_path, np.array(clean, float), np.array(perturbed, float))
        out = tmp_path / "out.json"
        proc = _run_child(
            *command, "--clean", clean, "--perturbed", perturbed, "--out", str(out),
            warnings=warnings,
        )
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr
        assert not out.exists()


class TestProject:
    def test_permuted_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((6, 2))
        perm = rng.permutation(6)
        clean, perturbed = _write_pair(tmp_path, data, data[perm])
        code, doc = _run(
            capsys, "project", "--group", "S", "--clean", clean, "--perturbed", perturbed
        )
        assert code == 0
        res = doc["results"]
        assert res["residual"] == pytest.approx(0.0, abs=1e-12)
        recovered = np.array(res["transform"]["permutation"])
        assert np.array_equal(data[perm][recovered], data)

    def test_rotated_translated_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((5, 2))
        theta = 0.6
        moved = data @ np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        ).T + np.array([1.0, -0.5])
        clean, perturbed = _write_pair(tmp_path, data, moved)
        code, doc = _run(
            capsys, "project", "--group", "SE", "--clean", clean, "--perturbed", perturbed
        )
        assert code == 0
        assert doc["results"]["residual"] <= 1e-8
        assert doc["results"]["exact"] is True

    def test_registration_monotone_in_iters(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        clean, perturbed = _write_pair(
            tmp_path, rng.standard_normal((7, 2)), rng.standard_normal((7, 2))
        )
        _, doc_one = _run(
            capsys, "project", "--group", "SxSE", "--clean", clean,
            "--perturbed", perturbed, "--max-iters", "1",
        )
        _, doc_many = _run(
            capsys, "project", "--group", "SxSE", "--clean", clean,
            "--perturbed", perturbed, "--max-iters", "50",
        )
        assert doc_one["results"]["residual"] >= doc_many["results"]["residual"] - 1e-12
        assert doc_one["results"]["exact"] is False


class TestSmoothPredict:
    def test_deep_inside_region(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        save_points_csv(path, PointCloud(np.zeros((2, 2))))
        code, doc = _run(
            capsys,
            "smooth-predict", "--classifier", "norm", "--input", str(path),
            "--tau", "100.0", "--sigma", "0.5", "--n1", "400", "--alpha", "0.01",
            "--seed", "2",
        )
        assert code == 0
        assert doc["results"]["label"] == 1
        expected = clopper_pearson_lower(400, 400, 0.99)
        assert doc["results"]["p_lower"] == pytest.approx(expected, rel=1e-12)

    def test_boundary_abstains(self, tmp_path, capsys):
        # threshold at the median of the noise law: majority is a coin flip
        path = tmp_path / "x.csv"
        save_points_csv(path, PointCloud(np.zeros((2, 2))))
        tau = 0.8 * math.sqrt(3.356693980033321)
        code, doc = _run(
            capsys,
            "smooth-predict", "--classifier", "norm", "--input", str(path),
            "--tau", str(tau), "--sigma", "0.8", "--n1", "1000", "--alpha", "0.001",
            "--seed", "3",
        )
        assert code == 0
        assert doc["results"]["label"] == "ABSTAIN"

    @pytest.mark.parametrize("alpha", ["0.9", "0.5", "nan"])
    def test_bad_alpha_exits_2_without_output(self, tmp_path, capsys, alpha):
        path = tmp_path / "x.csv"
        save_points_csv(path, PointCloud(np.zeros((2, 2))))
        out = tmp_path / "out.json"
        code = main(
            [
                "smooth-predict", "--classifier", "norm", "--input", str(path),
                "--tau", "1.0", "--sigma", "0.5", "--n1", "400", "--alpha", alpha,
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_identical(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        save_points_csv(path, PointCloud(np.ones((3, 2))))
        args = [
            "smooth-predict", "--classifier", "centered-norm", "--input", str(path),
            "--tau", "1.9", "--sigma", "0.7", "--n1", "500", "--alpha", "0.01",
            "--seed", "4",
        ]
        _, a = _run(capsys, *args)
        _, b = _run(capsys, *args)
        assert a["results"] == b["results"]


class TestPminGrid:
    def test_blackbox_constant_grid(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        code, doc = _run(
            capsys,
            "pmin-grid", "--group", "blackbox", "--norm-x", "1.0",
            "--norm-delta", "0.5", "--sigma", "0.5", "--resolution", "8",
            "--seed", "1", "--out-csv", str(csv_path),
        )
        assert code == 0
        rows = csv_path.read_text().strip().split("\n")
        assert len(rows) == 8
        expected = std_normal_cdf(1.0)
        seen_inf = 0
        for row in rows:
            for cell in row.split(","):
                if cell == "INF":
                    seen_inf += 1
                else:
                    assert float(cell) == pytest.approx(expected, rel=1e-12)
        assert seen_inf == doc["results"]["infeasible_cells"] > 0

    def test_so2_coarse_subsamples_fine(self, tmp_path, capsys):
        common = [
            "--group", "SO2", "--norm-x", "0.4", "--norm-delta", "0.3",
            "--sigma", "0.5", "--seed", "5", "--n1", "100", "--n2", "100",
            "--n3", "100", "--alpha", "0.01",
        ]
        coarse_path = tmp_path / "coarse.csv"
        fine_path = tmp_path / "fine.csv"
        assert main(["pmin-grid", *common, "--resolution", "4", "--out-csv", str(coarse_path)]) == 0
        capsys.readouterr()
        assert main(["pmin-grid", *common, "--resolution", "10", "--out-csv", str(fine_path)]) == 0
        capsys.readouterr()
        coarse = [r.split(",") for r in coarse_path.read_text().strip().split("\n")]
        fine = [r.split(",") for r in fine_path.read_text().strip().split("\n")]
        for ic, fi in enumerate((0, 3, 6, 9)):
            for jc, fj in enumerate((0, 3, 6, 9)):
                assert coarse[ic][jc] == fine[fi][fj]

    def test_loci_sidecar(self, tmp_path, capsys):
        code, doc = _run(
            capsys,
            "pmin-grid", "--group", "blackbox", "--norm-x", "1.0",
            "--norm-delta", str(math.sqrt(2.0)), "--sigma", "0.5",
            "--resolution", "4", "--seed", "2", "--out-csv", str(tmp_path / "g.csv"),
        )
        assert code == 0
        loci = doc["results"]["adversarial_rotation_loci"]
        assert len(loci) == 2
        values = sorted((l["eps1_normalized"], l["eps2_normalized"]) for l in loci)
        assert values[0][0] == pytest.approx(-math.sqrt(0.5), rel=1e-12)
        assert values[1][1] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_diff_mode(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        code, _ = _run(
            capsys,
            "pmin-grid", "--group", "blackbox", "--norm-x", "1.0",
            "--norm-delta", "0.5", "--sigma", "0.5", "--resolution", "4",
            "--seed", "3", "--diff", "blackbox", "--out-csv", str(csv_path),
        )
        assert code == 0
        for row in csv_path.read_text().strip().split("\n"):
            for cell in row.split(","):
                if cell != "INF":
                    assert float(cell) == pytest.approx(0.0, abs=1e-15)

    def test_n1_below_floor_is_usage_error(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "grid.csv", tmp_path / "grid.json"
        code = main(
            [
                "pmin-grid", "--group", "SO2", "--norm-x", "0.4", "--norm-delta", "0.3",
                "--sigma", "0.5", "--resolution", "3", "--seed", "1", "--n1", "50",
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ]
        )
        assert code == 2
        assert "--n1" in capsys.readouterr().err
        assert not csv_path.exists()
        assert not json_path.exists()

    @pytest.mark.parametrize(
        "norm_x,norm_delta,resolution",
        [("-1.0", "0.5", "4"), ("1.0", "-1", "4"), ("1.0", "0.5", "1")],
        ids=["norm-x", "norm-delta", "resolution"],
    )
    def test_invalid_norms(self, tmp_path, capsys, norm_x, norm_delta, resolution):
        code = main(
            [
                "pmin-grid", "--group", "blackbox", "--norm-x", norm_x,
                "--norm-delta", norm_delta, "--sigma", "0.5", "--resolution", resolution,
                "--seed", "1", "--out-csv", str(tmp_path / "g.csv"),
                "--out-json", str(tmp_path / "g.json"),
            ]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []


class TestSharedParser:
    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        clean, perturbed = _write_pair(tmp_path, np.eye(2) * 0.2, np.eye(2)[::-1] * 0.2)
        pair = ["--clean", clean, "--perturbed", perturbed]
        calls = [
            ["certify", "--group", "T", *pair, "--sigma", "0.5", "--p-lower", "0.8",
             "--seed", "1", "--method", "orbit"],
            ["project", "--group", "S", *pair],
            ["smooth-predict", "--classifier", "norm", "--input", clean, "--sigma", "0.5",
             "--n1", "100", "--seed", "1"],
            ["pmin-grid", "--group", "blackbox", "--norm-x", "1.0", "--norm-delta", "0.5",
             "--sigma", "0.5", "--resolution", "2", "--seed", "1",
             "--out-csv", str(tmp_path / "g.csv")],
            ["fixture", "--scenario", "random", "--norm-x", "1.0", "--norm-delta", "0.5",
             "--n-points", "3", "--seed", "1", "--out-clean", str(tmp_path / "c.csv"),
             "--out-perturbed", str(tmp_path / "p.csv")],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert built == []

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        data = np.eye(2) * 0.2
        clean, perturbed = _write_pair(tmp_path, data, data)
        common = [
            "certify", "--group", "T", "--clean", clean, "--perturbed", perturbed,
            "--sigma", "0.5", "--p-lower", "0.8", "--seed", "1", "--method", "orbit",
        ]
        code, first = _run(capsys, *common, "--multiclass", "--p-upper", "0.1")
        assert code == 0
        assert "multiclass" in first["results"]
        code, second = _run(capsys, *common)
        assert code == 0
        assert "multiclass" not in second["results"]
        parameters = second["manifest"]["parameters"]
        assert parameters["multiclass"] is False
        assert parameters["p_upper"] is None

    def test_pmin_grid_document_goes_to_out_json_or_stdout(self, tmp_path, capsys):
        json_path = tmp_path / "grid.json"
        common = [
            "pmin-grid", "--group", "blackbox", "--norm-x", "1.0", "--norm-delta", "0.5",
            "--sigma", "0.5", "--resolution", "3", "--seed", "1",
            "--out-csv", str(tmp_path / "grid.csv"),
        ]
        assert main([*common, "--out-json", str(json_path)]) == 0
        assert capsys.readouterr().out == ""
        written = json.loads(json_path.read_text())
        json_path.unlink()
        code, printed = _run(capsys, *common)
        assert code == 0
        assert not json_path.exists()
        assert printed["results"] == written["results"]
        assert printed["manifest"] == written["manifest"]


class TestUsageErrors:
    """Each usage error exits 2, names its flag or scenario on stderr and
    writes no file."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--group", "SO", "--sigma", "0.5", "--seed", "1"],
             "--p-lower or --classifier is required"),
            (["fixture", "--scenario", "random", "--norm-x", "0", "--norm-delta", "0.5"],
             "--norm-x: must be > 0"),
            (["fixture", "--scenario", "scaling", "--norm-x", "1.0"],
             "--norm-delta: required for the scaling scenario"),
            (["fixture", "--scenario", "rotation", "--norm-x", "1.0", "--theta", "0.5",
              "--dim", "3"],
             "--scenario rotation: requires --dim 2"),
            (["fixture", "--scenario", "rotation", "--norm-x", "1.0"],
             "--theta or --norm-delta: required for rotation scenario"),
            (["fixture", "--scenario", "random", "--norm-x", "1.0"],
             "--norm-delta: required for the random scenario"),
        ],
        ids=["certify-no-p-lower", "fixture-zero-norm-x", "scaling-no-norm-delta",
             "rotation-dim-3", "rotation-no-theta", "random-no-norm-delta"],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, message):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        clean, perturbed = _write_pair(inputs, np.eye(2) * 0.2, np.eye(2)[::-1] * 0.2)
        out = tmp_path / "out"
        out.mkdir()
        if argv[0] == "certify":
            argv = [*argv, "--clean", clean, "--perturbed", perturbed]
        else:
            argv = [*argv, "--seed", "1", "--out-clean", str(out / "c.csv"),
                    "--out-perturbed", str(out / "p.csv")]
        code = main([*argv, "--out", str(out / "out.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(out.iterdir()) == []
