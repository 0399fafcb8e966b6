"""Command-line interface: argument wiring, outputs, and exit codes.

Core claims checked here:

* every subcommand runs end to end through ``main(argv)``;
* ``audit-bounds`` exits 0 on a clean sweep, writes the CSV/JSON pair
  under ``--out``, and honors a JSON spec file (rejecting unknown keys);
* ``simulate`` writes the per-trial CSV and summary JSON with contents
  matching a library rerun at the same seed;
* ``gumbel-consts`` prints a CSV row whose values round-trip exactly to
  the library constants (shortest-repr floats);
* ``gaussian check-conditions`` exits 0/1 on the decay flags and
  ``gaussian simulate`` reports the empirical and reference rates;
* domain failures exit 2 with a diagnostic on stderr, argparse rejects
  unknown choices.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from exindep import common_neighbour_constants, norm_constants
from exindep.experiments_cli import run_max_experiment
from exindep.experiments_cli.cli import main
from exindep.experiments_cli.config import ExperimentConfig

pytestmark = pytest.mark.filterwarnings("ignore::exindep.errors.RegimeWarning")


class TestAuditBounds:
    def test_clean_sweep_exits_zero(self, capsys):
        code = main(["audit-bounds", "--count", "25", "--seed", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_pass"] is True
        assert doc["count"] == 25
        assert doc["violations"] == []

    def test_out_writes_report_pair(self, tmp_path, capsys):
        out = tmp_path / "audits"
        code = main(
            ["audit-bounds", "--count", "10", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        assert (out / "audits.csv").exists()
        assert (out / "summary.json").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["count"] == 10

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"event_family": "xor-parity", "d_range": [3, 3]})
        )
        code = main(
            ["audit-bounds", "--count", "5", "--seed", "2", "--spec", str(spec_path)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        families = set(doc["family_counts"])
        assert all(f.startswith("xor-parity/") for f in families)

    def test_spec_file_rejects_unknown_key(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"d_rang": [1, 3]}))
        code = main(
            ["audit-bounds", "--count", "5", "--seed", "2", "--spec", str(spec_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "d_rang" in captured.err

    def test_family_flags(self, capsys):
        code = main(
            [
                "audit-bounds", "--count", "5", "--seed", "4",
                "--event-family", "product-space", "--dep-family", "complete",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["family_counts"]) == {"product-space/complete"}

    def test_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit-bounds", "--count", "5", "--seed", "1",
                  "--event-family", "bogus"])
        assert exc.value.code == 2


class TestSimulate:
    def test_graph_maxdeg_stdout(self, capsys):
        code = main(
            ["simulate", "graph-maxdeg", "--n", "30", "--p", "0.4",
             "--trials", "8", "--seed", "5"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "graph-maxdeg"
        assert 0.0 <= doc["ks_vs_reference"] <= 1.0

    def test_out_matches_library_rerun(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["simulate", "graph-maxdeg", "--n", "30", "--p", "0.4",
             "--trials", "8", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        cfg = ExperimentConfig(kind="graph-maxdeg", n=30, p=0.4, trials=8, seed=5)
        want = run_max_experiment(cfg)
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["raw_max"]) for r in rows] == want.raw_max.tolist()
        doc = json.loads((out / "summary.json").read_text())
        assert doc["ks_vs_reference"] == want.ks_vs_reference

    def test_clique_ext_requires_gumbel_ref(self, capsys):
        code = main(
            ["simulate", "clique-ext", "--n", "20", "--p", "0.5", "--k", "3",
             "--trials", "4", "--seed", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_clique_ext_with_gumbel_ref(self, capsys):
        code = main(
            ["simulate", "clique-ext", "--n", "20", "--p", "0.5", "--k", "3",
             "--trials", "4", "--seed", "1", "--ref", "gumbel"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "cond_vs_count_ks" in doc["aux_stats"]

    def test_missing_k_exits_two(self, capsys):
        code = main(
            ["simulate", "hypergraph-maxdeg", "--n", "20", "--p", "0.3",
             "--trials", "4", "--seed", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGumbelConsts:
    def test_binomial_row_round_trips(self, capsys):
        code = main(
            ["gumbel-consts", "--family", "binomial", "--d", "100",
             "--N", "1000", "--p", "0.5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,d,N,p,k,h,a,b"
        cells = lines[1].split(",")
        want = norm_constants(100, 1000, 0.5)
        assert cells[0] == "binomial"
        assert float(cells[6]) == want.a
        assert float(cells[7]) == want.b

    def test_common_neighbour_row(self, capsys):
        code = main(
            ["gumbel-consts", "--family", "common-neighbour", "--n", "500",
             "--h", "2", "--p", "0.2"]
        )
        assert code == 0
        cells = capsys.readouterr().out.splitlines()[1].split(",")
        want = common_neighbour_constants(500, 0.2, 2)
        assert cells[0] == "common_neighbour"
        assert int(cells[2]) == 500
        assert float(cells[6]) == want.a

    def test_clique_row_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "consts.csv"
        code = main(
            ["gumbel-consts", "--family", "clique", "--n", "100", "--k", "3",
             "--p", "0.5", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("family,d,N,p,k,h,a,b\nclique,")

    def test_missing_parameter_exits_two(self, capsys):
        code = main(["gumbel-consts", "--family", "binomial", "--p", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGaussian:
    def test_check_ar1_passes(self, capsys):
        code = main(
            ["gaussian", "check-conditions", "--family", "ar1", "--d", "200",
             "--rho", "0.3", "--band", "5"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["g2_ok"] is True and doc["g4_ok"] is True
        assert doc["u"] == pytest.approx(math.sqrt(2 * math.log(200)), rel=1e-12)

    def test_check_log_decay_fails(self, capsys):
        code = main(
            ["gaussian", "check-conditions", "--family", "log-decay",
             "--d", "200", "--gamma", "0.9", "--band", "5"]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["g2_ok"] is False

    def test_simulate_reports_rates(self, capsys):
        code = main(
            ["gaussian", "simulate", "--family", "ar1", "--d", "20",
             "--rho", "0.2", "--trials", "200", "--seed", "9"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["empirical_rate"] <= 1.0
        assert 0.0 <= doc["independent_reference"] <= 1.0
        assert doc["abs_error"] == pytest.approx(
            abs(doc["empirical_rate"] - doc["independent_reference"]), abs=1e-12
        )

    @pytest.mark.parametrize("block", ["0", "-5"])
    def test_nonpositive_block_exits_two(self, block, capsys):
        code = main(
            ["gaussian", "simulate", "--family", "ar1", "--d", "20",
             "--rho", "0.2", "--trials", "10", "--seed", "1", "--block", block]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_bad_family_parameter_exits_two(self, capsys):
        code = main(
            ["gaussian", "simulate", "--family", "ar1", "--d", "20",
             "--trials", "10", "--seed", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
