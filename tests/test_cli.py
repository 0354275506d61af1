"""Command-line surface: subcommands, exit codes, determinism, config."""

import io
import json
import math
import os
import re
import warnings

import pytest

from critlat.cli import main
from critlat.moduli import sigma_p
from critlat.verifier import parse_certificate
from critlat.vints import VI


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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

    def test_bad_kind_exit_2(self):
        code, _ = run(["lattice", "--kind", "L9", "--p", "2", "--det"])
        assert code == 2

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
        "argv",
        [
            ["--p", "2.33", "2.345", "--policy", "interior", "--budget", "400"],
            ["--p", "2.33", "2.35", "--budget", "600"],  # three leaves to shard
        ],
    )
    def test_worker_count_keeps_documents(self, tmp_path, argv):
        docs = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            argv_w = ["--workers", workers, "verify", *argv, "--out", str(path)]
            assert run(argv_w)[0] == 0
            docs.append(path.read_bytes())
        assert docs[0] == docs[1]

    def test_corner_pow_narrows_inside_log_exp_pow(self, tmp_path, monkeypatch):
        # VI.pow as exp(y * log x), its form before the four-corner rule:
        # the corner rule may only narrow witnesses, never change a verdict
        def log_exp_pow(self, other):
            return (self._coerce(other) * self.log()).exp()

        argv = ["verify", "--p", "2.33", "2.35", "--budget", "600"]
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


class TestVerifyNearTwo:
    @pytest.fixture(scope="class")
    def near2(self, tmp_path_factory):
        # the equality line p = 2 can never certify; a small budget exhausts
        # with the partial certificate still written
        path = tmp_path_factory.mktemp("near2") / "near2.json"
        code, _ = run(
            ["verify", "--p", "1.99", "2.01", "--strip", "0.02",
             "--budget", "24", "--out", str(path)]
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
            r"|(node budget hit|width floor hit|no in-domain subcell) \(\d+ nodes\)"
            r"|[A-Za-z]+)$"
        )
        ends = [e for l in undecided for e in l["reason"].split("; ")]
        assert len(ends) == 3 * len(undecided)
        assert all(end.match(e) for e in ends), ends
        for what in ("p <= 2", "prescreen", "cost model", "node budget hit",
                     "width floor hit"):
            assert any(what in e for e in ends), what


def test_no_warnings_escape():
    # the VI lane runs under np.errstate at the batch entry points: a strip
    # raises no numpy (or other) warning, even when warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["--workers", "1", "verify", "--p", "2.33", "2.34", "--budget", "50"])
    assert code == 0
    assert json.loads(out)["leaves"]
