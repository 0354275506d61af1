"""Command-line surface: subcommands, exit codes, determinism, config."""

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

import critlat
from critlat import verifier
from critlat.cli import main
from critlat.moduli import sigma_p
from critlat.verifier import parse_certificate
from critlat.vints import VI


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def refused(argv, capsys):
    """The exit code of a run that must print nothing but one error line."""
    code, out = run(argv)
    err = capsys.readouterr().err
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return code


class TestEval:
    def test_delta_closed_form(self):
        code, out = run(["eval", "--p", "2", "--sigma", "1", "--what", "delta"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("delta,")][0]
        assert abs(float(line.split(",")[1]) - math.sqrt(3.0) / 2.0) < 1e-12

    def test_tau_near_curve(self):
        code, out = run(["eval", "--p", "2", "--sigma", "1.7320508", "--what", "tau"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("tau,")][0]
        assert abs(float(line.split(",")[1])) <= 1e-8

    def test_domain_violation_exit_2(self):
        code, _ = run(["eval", "--p", "0.5", "--sigma", "1"])
        assert code == 2

    def test_derivatives_rows(self):
        code, out = run(["eval", "--p", "2.3", "--sigma", "1.2", "--what", "derivatives"])
        assert code == 0
        names = {l.split(",")[0] for l in out.splitlines()[1:]}
        assert names == {"d_sigma", "d_sigma2", "d_p", "d_sigma_p", "d_sigma2_p"}

    def test_overflowing_p_exit_4(self, capsys):
        # 1.5^1e10 overflows a float in the tau solve: a numeric refusal,
        # with no row printed
        assert refused(["eval", "--p", "1e10", "--sigma", "1.5"], capsys) == 4

    def test_derivatives_on_the_curve_exit_4(self, capsys):
        # tau = 0 on sigma = sigma_p: a numeric refusal, not a traceback
        sigma = repr(sigma_p(2.4))
        code, _ = run(["eval", "--p", "2.4", "--sigma", sigma, "--what", "derivatives"])
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err


class TestP0:
    def test_enclosure_in_bracket(self):
        code, out = run(["p0", "--tol", "1e-3"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "p0"
        lo, hi = float(row[1]), float(row[2])
        assert 2.57 <= lo <= hi <= 2.58
        assert "rounded down" in row[3] and "rounded up" in row[3]

    def test_zero_tolerance_exit_2(self):
        code, _ = run(["p0", "--tol", "0"])
        assert code == 2

    def test_nan_tolerance_exit_2(self, capsys):
        # NaN fails every comparison: without the check the bisection would
        # not run and the unrefined bracket would print
        assert refused(["p0", "--tol", "nan"], capsys) == 2

    def test_tight_tolerance(self):
        code, out = run(["p0", "--tol", "1e-6"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[2]) - float(row[1]) <= 2e-6


class TestLattice:
    def test_det(self):
        code, out = run(["lattice", "--kind", "L0", "--p", "2", "--det"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("det,")][0]
        assert abs(float(line.split(",")[1]) - math.sqrt(3.0) / 2.0) < 1e-12

    def test_curve_equianharmonic(self):
        code, out = run(["lattice", "--kind", "L0", "--p", "2", "--curve"])
        assert code == 0
        g2 = [l for l in out.splitlines() if l.startswith("g2,")][0]
        g3 = [l for l in out.splitlines() if l.startswith("g3,")][0]
        disc = [l for l in out.splitlines() if l.startswith("discriminant,")][0]
        assert abs(complex(g2.split(",")[1])) < 1e-8
        assert abs(complex(g3.split(",")[1])) > 1.0
        assert abs(complex(disc.split(",")[1])) > 0.0

    def test_multiplier_accepted(self):
        code, out = run(
            ["lattice", "--kind", "L0", "--p", "2",
             "--multiplier", "0.5+0.8660254037844386i"]
        )
        assert code == 0
        assert "accepted" in out
        assert "((0, 1), (-1, 1))" in out

    def test_multiplier_rejected_exit_4(self):
        code, _ = run(["lattice", "--kind", "L0", "--p", "2", "--multiplier", "1i"])
        assert code == 4

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_p_exit_2(self, p, capsys):
        assert refused(["lattice", "--kind", "L0", "--p", p], capsys) == 2

    def test_large_p_l0_prints_det_and_curve(self):
        # sigma_p(p) rounds to 2 from p = 1024 on, where 2^p overflows a float
        code, out = run(["lattice", "--kind", "L0", "--p", "1100", "--det"])
        assert code == 0
        det = float(critlat.moduli.sigma_p_hp(1100.0)) / 2
        assert out.splitlines()[1] == f"det,{det!r},double rounding"
        code, out = run(["lattice", "--kind", "L0", "--p", "1e10", "--curve"])
        assert code == 0
        assert all(math.isfinite(abs(complex(l.split(",")[1]))) for l in out.splitlines()[1:])

    @pytest.mark.parametrize("p", ["1e14", "1e15", "1e16", "1e17", "1e20"])
    def test_large_p_l1_basis_is_accurate(self, p):
        # omega2 = (b0, tau_p b0) with b0 = 1 in floats, and tau_p ~ ln2/p is
        # found to 1e-12 relative: 1 - tau no longer rounds tau away
        code, out = run(["lattice", "--kind", "L1", "--p", p])
        assert code == 0
        omega2 = complex(out.splitlines()[2].split(",")[1])
        assert omega2.real == 1.0
        with mpmath.workprec(120):
            pm = mpmath.mpf(float(p))
            ref = mpmath.findroot(
                lambda t: mpmath.log(2) + pm * mpmath.log1p(-t) - mpmath.log1p(t**pm),
                (0.5 * mpmath.log(2) / pm, 1.5 * mpmath.log(2) / pm), solver="illinois")
        assert abs(omega2.imag - float(ref)) <= 1e-12 * float(ref)

    def test_unbracketed_tau_p_exit_4_names_p(self, monkeypatch, capsys):
        # a tau_p root that bisection cannot bracket to 1e-13 relative is a
        # numeric failure, not a printed basis
        monkeypatch.setattr(critlat.moduli, "TAU_P_STEPS", 30)
        code, out = run(["lattice", "--kind", "L1", "--p", "1e14"])
        err = capsys.readouterr().err
        assert code == 4 and out == ""
        assert err.startswith(f"error: numeric failure: tau_p({1e14!r}): ")

    def test_bad_kind_exit_2(self):
        code, _ = run(["lattice", "--kind", "L9", "--p", "2", "--det"])
        assert code == 2

    @pytest.mark.parametrize(
        "action",
        [
            ["--orbit", "2", "x"],  # an orbit length that is no integer
            ["--orbit", "nan", "3"],
            ["--orbit", "1e400", "3"],  # overflows to inf
            ["--multiplier", "nan"],
        ],
    )
    def test_bad_lattice_numbers_exit_2(self, action, capsys):
        assert refused(["lattice", "--kind", "L0", "--p", "2", *action], capsys) == 2

    def test_orbit(self):
        code, out = run(["lattice", "--kind", "L0", "--p", "2", "--orbit", "2", "3"])
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("orbit,")][0]
        assert line.split(",", 1)[1].startswith("1,0;2,0;4,0;8,0")


class TestVerify:
    def test_small_complete_exit_0(self, tmp_path):
        path = tmp_path / "cert.json"
        code, _ = run(
            ["verify", "--p", "2.32", "2.34", "--strip", "0.02",
             "--budget", "500", "--policy", "interior", "--out", str(path)]
        )
        assert code == 0
        doc = parse_certificate(path.read_text())
        assert doc["complete"] is True
        assert doc["totals"].get("Undecided", 0) == 0

    def test_reversed_range_exit_2(self):
        code, _ = run(["verify", "--p", "2.4", "2.3", "--budget", "10"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["--p", "2.3", "inf"], ["--p", "2.3", "2.4", "--strip", "nan"]],
        ids=["inf_p", "nan_strip"],
    )
    def test_non_finite_input_exit_2(self, argv, capsys):
        assert refused(["verify", *argv], capsys) == 2

    @pytest.mark.parametrize("p_range", [["2.3", "1e308"], ["1e6", "2e6"]])
    def test_overflowing_sigma_p_exit_4(self, p_range, capsys):
        # sigma_p overflows a float on these strips: a numeric refusal
        assert refused(["verify", "--p", *p_range], capsys) == 4

    @pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
    def test_unwritable_out_exit_2_names_the_path(self, where, tmp_path, capsys):
        path = tmp_path / "no" / "x.json" if where == "missing_dir" else tmp_path
        code, out = run(["verify", "--p", "2.33", "2.345", "--policy", "interior", "--out", str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"error: cannot write certificate file {path}: "), err

    def test_budget_exhaustion_exit_3(self, tmp_path):
        path = tmp_path / "partial.json"
        code, _ = run(
            ["verify", "--p", "1.997", "2.003", "--strip", "0.02",
             "--budget", "8", "--policy", "interior", "--out", str(path)]
        )
        assert code == 3
        doc = parse_certificate(path.read_text())
        assert doc["complete"] is False
        assert doc["totals"].get("Undecided", 0) > 0

    def test_byte_identical_documents(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--p", "2.33", "2.345", "--strip", "0.02",
                "--budget", "400", "--policy", "interior"]
        assert run(argv + ["--out", str(a)])[0] == 0
        assert run(argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--p", "2.33", "2.345", "--policy", "interior", "--budget", "400"], 0),
            (["--p", "2.33", "2.35", "--budget", "600"], 0),  # three leaves
            (["--p", "2.75", "2.8", "--budget", "100"], 0),  # split leaves
            # strip_one: halves certified in the rounds after their cell
            (["--p", "2.6", "2.8", "--strip", "0.02", "--budget", "10000"], 0),
            # the leaf budget binds: only some undecided cells split
            (["--p", "1.99", "2.01", "--strip", "0.02", "--budget", "24"], 3),
        ],
        ids=[f"argv{i}" for i in range(5)],
    )
    def test_worker_count_keeps_documents(self, tmp_path, argv, code):
        docs = []
        for workers in ("1", "2", "3"):
            path = tmp_path / f"w{workers}.json"
            argv_w = ["--workers", workers, "verify", *argv, "--out", str(path)]
            assert run(argv_w)[0] == code
            docs.append(path.read_bytes())
        assert docs[0] == docs[1] == docs[2]

    @pytest.mark.parametrize(
        "argv, code, sha256",
        [
            (["verify", "--p", "2.6", "2.8", "--strip", "0.02", "--budget", "10000"], 0,
             "bf510ae2dfc2ae62b27c9c1698c1e46ad8027d1c7846b5e524d5b126bb80381f"),
            (["verify", "--p", "2.3", "2.4"], 0,
             "8a21ecea67500aaaced79a226f77dbaafad076539071f7893e2c4cfa209260aa"),
            (["p0", "--tol", "1e-6"], 0,
             "750f1da8eaa56387a5a06154ed72b37ca7a76e7b2a9fd68b0f9080a0d75413a6"),
            # the one fixture whose reasons show prescreen skips and
            # cost-model skips
            (["verify", "--p", "1.99", "2.01", "--strip", "0.02", "--budget", "24"], 3,
             "cab6821462ed9a7c5f53ad8f32bb49a69f5d5d664511fd6827e3320fed6c8568"),
        ],
        ids=["strip_one", "p2.3-2.4", "p0", "p1.99-2.01"],
    )
    def test_fixture_output_is_pinned(self, argv, code, sha256, monkeypatch):
        # the fixture runs' bytes: a change that moves them on purpose
        # updates the pin and says why in CHANGES.md
        monkeypatch.delenv("CRITLAT_CONFIG", raising=False)
        got, out = run(["--workers", "1", *argv])
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, box_lanes, most_tau_calls",
        [
            (["verify", "--p", "2.6", "2.8", "--strip", "0.02", "--budget", "10000"], 6867, 11),
            (["verify", "--p", "2.3", "2.4"], 6250, 10),
            (["verify", "--p", "1.99", "2.01", "--strip", "0.02", "--budget", "24"], 8809, 27),
        ],
        ids=["strip_one", "p2.3-2.4", "p1.99-2.01"],
    )
    def test_fixture_subpaving_work(self, argv, box_lanes, most_tau_calls, monkeypatch):
        # a round is one merged subpaving, whose waves run the tau fixed point
        # once per slice for jobs of every fid, and a run is one loop of
        # rounds, in which an undecided cell's halves join the round after
        # it whenever the commit order is certain to split it: the box lanes
        # are those of 64-lane speculation, each job as if alone, in at most
        # these fixed-point calls
        tau, calls, lanes = critlat.batch.tau_enclose_batch, [0], [0]

        def counted(P, S, *a, **k):
            calls[0] += 1
            lanes[0] += int(((P.lo != P.hi) | (S.lo != S.hi)).sum())
            return tau(P, S, *a, **k)

        monkeypatch.setattr(critlat.batch, "tau_enclose_batch", counted)
        run(["--workers", "1", *argv])
        assert lanes[0] == box_lanes
        assert 0 < calls[0] <= most_tau_calls

    def test_corner_pow_narrows_inside_log_exp_pow(self, tmp_path, monkeypatch):
        # VI.pow as exp(y * log x), its form before the four-corner rule:
        # the corner rule may only narrow witnesses, never change a verdict
        def log_exp_pow(self, other):
            return (self._coerce(other) * self.log()).exp()

        argv = ["verify", "--p", "2.33", "2.35", "--budget", "600"]
        # the strip's sigma_p range runs on VI.pow too: hold it at the corner
        # rule's value, so that both forms certify the same leaf boxes
        fixed = verifier._sigma_p_range(2.33, 2.35)
        monkeypatch.setattr(verifier, "_sigma_p_range", lambda lo, hi: fixed)
        leaves = {}
        for form in ("corners", "log_exp"):
            if form == "log_exp":
                monkeypatch.setattr(VI, "pow", log_exp_pow)
            path = tmp_path / f"{form}.json"
            assert run(argv + ["--out", str(path)])[0] == 0
            doc = parse_certificate(path.read_text())
            leaves[form] = {leaf["id"]: leaf for leaf in doc["leaves"]}
        new, old = leaves["corners"], leaves["log_exp"]
        assert new.keys() == old.keys() and len(new) == 3
        for i, leaf in new.items():
            assert leaf["verdict"] == old[i]["verdict"]
            (nlo, nhi), (olo, ohi) = (
                map(float, x[i]["witness"]["value"]) for x in (new, old)
            )
            assert olo <= nlo <= nhi <= ohi
        # the two forms did run: they round differently
        assert any(new[i]["witness"] != old[i]["witness"] for i in new)


class TestConfig:
    def test_dump_config_defaults(self):
        code, out = run(["--dump-config"])
        assert code == 0
        cfg = json.loads(out)
        assert cfg["workers"] == 1

    def test_env_overrides_default(self):
        os.environ["CRITLAT_WORKERS"] = "3"
        try:
            code, out = run(["--dump-config"])
            assert json.loads(out)["workers"] == 3
        finally:
            del os.environ["CRITLAT_WORKERS"]

    def test_flag_overrides_env(self):
        os.environ["CRITLAT_WORKERS"] = "3"
        try:
            code, out = run(["--workers", "2", "--dump-config"])
            assert json.loads(out)["workers"] == 2
        finally:
            del os.environ["CRITLAT_WORKERS"]

    def test_config_file_lowest_precedence(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"workers": 7, "node_budget": 9000}))
        code, out = run(["--config", str(cfg_path), "--dump-config"])
        cfg = json.loads(out)
        assert cfg["workers"] == 7
        assert cfg["node_budget"] == 9000
        os.environ["CRITLAT_WORKERS"] = "4"
        try:
            _, out = run(["--config", str(cfg_path), "--dump-config"])
            assert json.loads(out)["workers"] == 4
        finally:
            del os.environ["CRITLAT_WORKERS"]

    def test_config_format_reaches_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"format": "tabular"}))
        argv = ["--config", str(cfg_path), "verify", "--p", "2.33", "2.34", "--budget", "50"]
        code, out = run(argv)
        assert code == 0
        assert out.startswith("metric,value\n")
        # the flag still wins over the config file
        code, out = run(argv + ["--format", "structured"])
        assert code == 0 and json.loads(out)["leaves"]

    @pytest.mark.parametrize(
        "cfg",
        [
            {"workers": "2"},
            {"workers": 1.5},
            {"node_budget": "x"},
            {"node_budget": 0},
            {"format": "xml"},
            {"output": 5},  # open() would take it for a file descriptor
            [1, 2],  # not a JSON object
        ],
    )
    def test_bad_config_values_exit_2(self, cfg, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["--config", str(cfg_path), "verify", "--p", "2.33", "2.34", "--budget", "50"]
        assert refused(argv, capsys) == 2

    def test_zero_node_budget_exit_2(self, capsys):
        # a zero budget would leave every strip Undecided after a long run
        argv = ["verify", "--p", "2.6", "2.8", "--node-budget", "0"]
        assert refused(argv, capsys) == 2


class TestVerifyNearTwo:
    @pytest.fixture(scope="class")
    def near2(self, tmp_path_factory):
        # the equality line p = 2 can never certify; a small budget exhausts
        # with the partial certificate still written.  The node budget is one
        # that some subpaving job hits, so that every kind of end shows
        path = tmp_path_factory.mktemp("near2") / "near2.json"
        code, _ = run(
            ["verify", "--p", "1.99", "2.01", "--strip", "0.02",
             "--budget", "24", "--node-budget", "2000", "--out", str(path)]
        )
        return code, parse_certificate(path.read_text())

    def test_full_policy_exhausts_near_equality_line(self, near2):
        code, doc = near2
        assert code == 3
        assert doc["complete"] is False
        undecided = [l for l in doc["leaves"] if l["verdict"] == "Undecided"]
        assert undecided
        assert any(
            float(l["p"][0]) <= 2.0 <= float(l["p"][1]) for l in undecided
        )

    def test_undecided_leaves_say_why(self, near2):
        # each Undecided leaf lists how each of its three attempts ended
        undecided = [l for l in near2[1]["leaves"] if l["verdict"] == "Undecided"]
        end = re.compile(
            r"(interior-high|interior-low|mono-low|mono-high): ("
            r"skipped by prescreen \(margin \S+ <= \S+\)"
            r"|skipped by cost model \(estimate \S+ > \d+ nodes\)"
            r"|skipped, p <= 2"
            r"|(node budget hit|width floor hit|no in-domain subcell) \(\d+ nodes\))$"
        )
        ends = [e for l in undecided for e in l["reason"].split("; ")]
        assert len(ends) == 3 * len(undecided)
        assert all(end.match(e) for e in ends), ends
        for what in ("p <= 2", "prescreen", "cost model", "node budget hit"):
            assert any(what in e for e in ends), what


def test_no_warnings_escape():
    # the VI lane runs under np.errstate at the batch entry points: a strip
    # raises no numpy (or other) warning, even when warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["--workers", "1", "verify", "--p", "2.33", "2.34", "--budget", "50"])
    assert code == 0
    assert json.loads(out)["leaves"]


def test_python_m_critlat_runs_the_cli():
    # a checkout runs `python -m critlat` with src/ on the path, uninstalled
    src = str(Path(critlat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "critlat", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"critlat {critlat.__version__}"
