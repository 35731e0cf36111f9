import json
import math
from pathlib import Path

import numpy as np
import pytest

from vlmcx import ContextTree
from vlmcx.cli import (
    ColumnSpec,
    IngestSpec,
    chronological_to_context,
    ingest,
    main,
    render_tree,
    _parse_covariate_rows,
    _parse_history,
    _transform,
)
from vlmcx.errors import (
    AllFitsFailed,
    DataError,
    EmptyAfterTransform,
    LagMismatch,
    MissingColumn,
    NonNumericCell,
)
from vlmcx.simulate import builtin_model

SIX_ROWS = """date,hsi,sp500
d1,0.5,100.0
d2,-0.2,110.0
d3,0.1,99.0
d4,-0.3,101.0
d5,0.4,105.0
d6,0.2,102.0
"""

HAND_SPEC = {
    "target": {"column": "hsi", "transform": "binarize_sign"},
    "covariates": [{"column": "sp500", "transform": "log_return"}],
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTransforms:
    def test_none_is_identity(self):
        values, offset = _transform(np.array([1.0, -2.0]), "none", "c")
        np.testing.assert_array_equal(values, [1.0, -2.0])
        assert offset == 0

    def test_binarize_sign(self):
        values, offset = _transform(np.array([0.5, -0.2, 0.1, 0.0]), "binarize_sign", "c")
        np.testing.assert_array_equal(values, [1.0, 0.0, 1.0, 0.0])
        assert offset == 0

    def test_log_return(self):
        values, offset = _transform(np.array([100.0, 110.0]), "log_return", "c")
        assert offset == 1
        assert values[0] == pytest.approx(math.log(1.1), abs=1e-15)

    def test_log_return_needs_positive_prices(self):
        with pytest.raises(DataError, match="row 2"):
            _transform(np.array([100.0, -5.0, 101.0]), "log_return", "px")

    def test_unknown_transform_rejected(self):
        with pytest.raises(DataError):
            ColumnSpec(column="c", transform="sqrt")


class TestIngest:
    def test_hand_worked_fixture(self, tmp_path):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        data = ingest(csv_path, IngestSpec.from_dict(HAND_SPEC))
        # log_return eats the first row, so the target starts at day 2
        np.testing.assert_array_equal(data.states, [0, 1, 0, 1, 1])
        want = [
            math.log(110.0 / 100.0),
            math.log(99.0 / 110.0),
            math.log(101.0 / 99.0),
            math.log(105.0 / 101.0),
            math.log(102.0 / 105.0),
        ]
        np.testing.assert_allclose(data.covariates[:, 0], want, atol=1e-15)
        assert data.d == 1

    def test_no_covariates(self, tmp_path):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        spec = IngestSpec.from_dict(
            {"target": {"column": "hsi", "transform": "binarize_sign"}}
        )
        data = ingest(csv_path, spec)
        np.testing.assert_array_equal(data.states, [1, 0, 1, 0, 1, 1])
        assert data.covariates.shape == (6, 0)

    def test_missing_column(self, tmp_path):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        spec = IngestSpec.from_dict(
            {"target": {"column": "nope", "transform": "binarize_sign"}}
        )
        with pytest.raises(MissingColumn):
            ingest(csv_path, spec)

    def test_non_numeric_cell_reports_file_line(self, tmp_path):
        broken = SIX_ROWS.replace("d3,0.1,99.0", "d3,0.1,n/a")
        csv_path = write(tmp_path, "six.csv", broken)
        with pytest.raises(NonNumericCell) as err:
            ingest(csv_path, IngestSpec.from_dict(HAND_SPEC))
        # header is line 1, so the third data row is line 4
        assert err.value.row == 4
        assert err.value.column == "sp500"

    def test_nothing_left_after_transform(self, tmp_path):
        csv_path = write(tmp_path, "one.csv", "hsi,sp500\n0.5,100.0\n")
        with pytest.raises(EmptyAfterTransform):
            ingest(csv_path, IngestSpec.from_dict(HAND_SPEC))

    def test_target_must_be_integer_states(self, tmp_path):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        spec = IngestSpec.from_dict({"target": {"column": "hsi"}})
        with pytest.raises(DataError):
            ingest(csv_path, spec)

    def test_missing_file(self):
        with pytest.raises(DataError):
            ingest("/nonexistent/file.csv", IngestSpec.from_dict(HAND_SPEC))

    def test_invalid_spec_payload(self):
        with pytest.raises(DataError):
            IngestSpec.from_dict({"covariates": []})


class TestHelpers:
    def test_chronological_history_is_reversed(self):
        assert chronological_to_context([0, 1, 1]) == (1, 1, 0)

    def test_parse_history(self):
        assert _parse_history("0,1,1,1,0") == (0, 1, 1, 1, 0)

    def test_parse_history_errors(self):
        with pytest.raises(DataError):
            _parse_history("0,x,1")
        with pytest.raises(DataError):
            _parse_history("")

    def test_parse_covariate_rows_reverses_time(self):
        arr = _parse_covariate_rows("0.1,0.2;0.3,0.4", 2)
        np.testing.assert_allclose(arr, [[0.3, 0.4], [0.1, 0.2]])

    def test_parse_covariate_rows_width_checked(self):
        with pytest.raises(LagMismatch):
            _parse_covariate_rows("0.1;0.2,0.3", 1)

    def test_render_tree_markers(self):
        text = render_tree(builtin_model("model2").tree)
        assert text.splitlines()[0] == "root"
        assert "|-- " in text and "`-- " in text
        assert "(alpha=0.5, h=3)" in text
        # internal nodes carry no annotation
        assert "root (" not in text


class TestCommands:
    def ingest_json(self, tmp_path):
        return write(
            tmp_path,
            "ingest.json",
            json.dumps(
                {
                    "target": {"column": "y"},
                    "covariates": [{"column": "x1"}],
                }
            ),
        )

    def test_simulate_writes_deterministic_csv(self, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["simulate", "--model", "model2", "--n", "400",
                     "--seed", "7", "--out", out1]) == 0
        assert main(["simulate", "--model", "model2", "--n", "400",
                     "--seed", "7", "--out", out2]) == 0
        text = Path(out1).read_text()
        assert text == Path(out2).read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "y,x1"
        assert len(lines) == 401

    def test_simulate_fit_predict_round_trip(self, tmp_path, capsys):
        sim = str(tmp_path / "sim.csv")
        model = str(tmp_path / "model.json")
        report = str(tmp_path / "report.json")
        assert main(["simulate", "--model", "model2", "--n", "600",
                     "--seed", "5", "--out", sim]) == 0
        assert main(["fit", "--data", sim, "--ingest", self.ingest_json(tmp_path),
                     "--tune", "--out", model, "--report", report]) == 0
        out = capsys.readouterr().out
        assert "selected s=" in out
        assert "logLik" in out and "BIC" in out
        tree = ContextTree.parse(Path(model).read_text())
        doc = json.loads(Path(report).read_text())
        assert set(doc) == {"model", "criteria", "config", "leaves", "audit", "notes"}
        assert all(isinstance(leaf["iterations"], int) for leaf in doc["leaves"])
        assert main(["predict", "--model", model, "--history", "0,1"]) == 0
        pred = capsys.readouterr().out
        assert "context" in pred and "P(next=1) = " in pred
        assert tree.p == 2

    def test_fit_without_tuning(self, tmp_path, capsys):
        sim = str(tmp_path / "sim.csv")
        main(["simulate", "--model", "model2", "--n", "500", "--seed", "5",
              "--out", sim])
        assert main(["fit", "--data", sim, "--ingest", self.ingest_json(tmp_path),
                     "--s", "5", "--gamma", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "config: s=5 gamma=0.01" in out

    def test_predict_known_value(self, capsys):
        assert main(["predict", "--model", "model1",
                     "--history", "0,1,1,1,0"]) == 0
        out = capsys.readouterr().out
        assert "context 0,1,1,1 (h=2)" in out
        assert "P(next=1) = 0.880797" in out

    def test_predict_with_covariates(self, capsys):
        assert main(["predict", "--model", "model1", "--history", "0,0",
                     "--covariates", "0.5"]) == 0
        out = capsys.readouterr().out
        want = 1.0 / (1.0 + math.exp(-(0.1 + 2.0 * 0.5)))
        assert f"P(next=1) = {want:.6f}" in out

    def test_predict_probabilities_sum_to_one(self, capsys):
        main(["predict", "--model", "model2", "--history", "1,1"])
        out = capsys.readouterr().out
        probs = [float(line.split("= ")[1]) for line in out.strip().splitlines()[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-5)

    def test_evaluate_writes_summary(self, tmp_path, capsys):
        out = str(tmp_path / "summary.json")
        assert main(["evaluate", "--model", "model2", "--n", "300",
                     "--runs", "2", "--seed", "3", "--s", "5", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "results over 2 runs, n=300" in printed
        doc = json.loads(Path(out).read_text())
        assert doc["runs"] == 2


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        assert main([]) == 2
        assert main(["fit"]) == 2
        assert main(["frobnicate"]) == 2
        # a grid flag with no values must not fall back to the default grid
        for flag in ("--s-grid", "--gamma-grid"):
            assert main(["fit", "--data", "d.csv", "--ingest", "i.json", "--tune", flag]) == 2
        capsys.readouterr()

    def test_data_errors_exit_three(self, tmp_path, capsys):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        spec = write(
            tmp_path, "spec.json",
            json.dumps({"target": {"column": "nope"}}),
        )
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_history_exits_three(self, capsys):
        assert main(["predict", "--model", "model1", "--history", "a,b"]) == 3
        capsys.readouterr()

    def test_numerical_failures_exit_four(self, tmp_path, capsys, monkeypatch):
        sim = str(tmp_path / "sim.csv")
        main(["simulate", "--model", "model2", "--n", "200", "--seed", "1",
              "--out", sim])
        spec = write(
            tmp_path, "spec.json",
            json.dumps({"target": {"column": "y"}, "covariates": [{"column": "x1"}]}),
        )

        def boom(*args, **kwargs):
            raise AllFitsFailed("nothing converged")

        monkeypatch.setattr("vlmcx.cli.fit", boom)
        assert main(["fit", "--data", sim, "--ingest", spec]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_invalid_s_grid_exits_three(self, tmp_path, capsys):
        sim = str(tmp_path / "sim.csv")
        assert main(["simulate", "--model", "model2", "--n", "1000",
                     "--seed", "1000000", "--out", sim]) == 0
        spec = write(
            tmp_path, "spec.json",
            json.dumps({"target": {"column": "y"}, "covariates": [{"column": "x1"}]}),
        )
        assert main(["fit", "--data", sim, "--ingest", spec, "--tune",
                     "--s-grid", "0", "2", "5", "--gamma-grid", "1e-3"]) == 3
        assert "s must be >= 1" in capsys.readouterr().err
        assert main(["evaluate", "--model", "model2", "--n", "300", "--runs", "2",
                     "--tune", "--s-grid", "0"]) == 3
        assert "s must be >= 1" in capsys.readouterr().err

    def test_missing_model_file_exits_three(self, capsys):
        assert main(["predict", "--model", "/nope/model.json",
                     "--history", "0,1"]) == 3
        capsys.readouterr()
