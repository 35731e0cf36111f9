import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlmcx import ContextTree, ParamBlock, generate
from vlmcx.cli import (
    TRANSFORMS,
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
from vlmcx.simulate import ModelSpec, builtin_model

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark, here
        # right before a column the spec names
        text = "".join(line.split(",", 1)[-1] for line in SIX_ROWS.splitlines(True))
        plain = ingest(write(tmp_path, "plain.csv", text), IngestSpec.from_dict(HAND_SPEC))
        marked = ingest(write(tmp_path, "bom.csv", "\ufeff" + text),
                        IngestSpec.from_dict(HAND_SPEC))
        np.testing.assert_array_equal(marked.states, plain.states)
        np.testing.assert_array_equal(marked.covariates, plain.covariates)

    def test_repeated_needed_column_is_named(self, tmp_path):
        csv_path = write(tmp_path, "dup.csv", SIX_ROWS.replace("date,", "hsi,", 1))
        with pytest.raises(DataError, match=r"column 'hsi' appears 2 times in the header"):
            ingest(csv_path, IngestSpec.from_dict(HAND_SPEC))
        # a repeated column the spec does not name is not read
        text = SIX_ROWS.replace("sp500\n", "sp500,date\n").replace(".0\n", ".0,d\n")
        assert ingest(write(tmp_path, "dup.csv", text), IngestSpec.from_dict(HAND_SPEC)).n == 5

    def test_target_column_reused_as_a_covariate_keeps_each_transform(self, tmp_path):
        csv_path = write(tmp_path, "y.csv", "y\n0\n2\n1\n2\n0\n")
        spec = IngestSpec.from_dict({
            "target": {"column": "y"},
            "covariates": [{"column": "y", "transform": "binarize_sign"}],
        })
        data = ingest(csv_path, spec)
        np.testing.assert_array_equal(data.states, [0, 2, 1, 2, 0])
        np.testing.assert_array_equal(data.covariates[:, 0], [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_covariate_named_twice_keeps_each_transform(self, tmp_path):
        csv_path = write(tmp_path, "x.csv", "y,x\n0,100\n2,110\n1,99\n2,105\n0,100\n")
        spec = IngestSpec.from_dict({
            "target": {"column": "y"},
            "covariates": [{"column": "x", "transform": "log_return"}, {"column": "x"}],
        })
        data = ingest(csv_path, spec)
        x = np.array([100.0, 110.0, 99.0, 105.0, 100.0])
        assert data.n == 4  # the log return consumes the first row of both
        np.testing.assert_array_equal(data.states, [2, 1, 2, 0])
        np.testing.assert_array_equal(data.covariates[:, 0], np.log(x[1:] / x[:-1]))
        np.testing.assert_array_equal(data.covariates[:, 1], x[1:])

    def test_empty_lines_at_the_end_are_ignored(self, tmp_path):
        plain = ingest(write(tmp_path, "six.csv", SIX_ROWS), IngestSpec.from_dict(HAND_SPEC))
        padded = ingest(write(tmp_path, "pad.csv", SIX_ROWS + "\n\r\n"),
                        IngestSpec.from_dict(HAND_SPEC))
        np.testing.assert_array_equal(padded.states, plain.states)
        np.testing.assert_array_equal(padded.covariates, plain.covariates)

    def test_empty_line_inside_the_data_names_its_row(self, tmp_path):
        broken = SIX_ROWS.replace("d3,0.1,99.0\n", "d3,0.1,99.0\n\n")
        with pytest.raises(NonNumericCell) as err:
            ingest(write(tmp_path, "gap.csv", broken + "\n"), IngestSpec.from_dict(HAND_SPEC))
        # lines: header 1, d1..d3 2..4, the empty line 5
        assert (err.value.row, err.value.column) == (5, "hsi")

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


def expected_csv(spec, n, seed):
    """The file ``vlmcx simulate`` should write, built row by row from
    ``generate``'s data: the state, then ``repr`` of each covariate."""
    data = generate(spec, n, seed)
    header = ",".join(["y"] + [f"x{i + 1}" for i in range(data.d)])
    rows = [
        ",".join([str(int(data.states[i]))] + [repr(float(v)) for v in data.covariates[i]])
        for i in range(data.n)
    ]
    return ("\r\n".join([header] + rows) + "\r\n").encode()


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
        assert Path(out1).read_bytes() == expected_csv(builtin_model("model2"), 400, 7)
        # a tree without covariates writes the state column alone
        nodes = {(): None}
        for s, alpha in enumerate(([0.2, -0.4], [1.0, 0.5], [-0.3, 0.8])):
            nodes[(s,)] = ParamBlock(alpha=np.array(alpha), beta=np.zeros((2, 0, 0)))
        tree = ContextTree(p=3, d=0, nodes=nodes)
        model = write(tmp_path, "model.json", tree.serialize())
        assert main(["simulate", "--model", model, "--n", "300",
                     "--seed", "4", "--out", out1]) == 0
        assert Path(out1).read_text().splitlines()[0] == "y"
        assert Path(out1).read_bytes() == expected_csv(ModelSpec(tree=tree), 300, 4)

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

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_fit_counts_mass_fallback_in_one_line(self, tmp_path, capsys, scale):
        # a noise covariate in units of 1e200 defeats every fit with lags;
        # the output then counts the fallbacks in one line, while the report
        # keeps one note per context
        data = generate(builtin_model("model3"), 1000, seed=1)
        x = np.random.default_rng(7).standard_normal(1000) * scale
        sim = write(tmp_path, "sim.csv", "y,x1\n" + "".join(
            f"{s},{v!r}\n" for s, v in zip(data.states.tolist(), x.tolist())))
        report = str(tmp_path / "report.json")
        assert main(["fit", "--data", sim, "--ingest", self.ingest_json(tmp_path),
                     "--report", report]) == 0
        notes = [line[6:] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("note: ")]
        doc = json.loads(Path(report).read_text())
        fallen = [n for n in doc["notes"] if n.endswith("fell back to intercept only")]
        if scale == 1.0:
            assert not fallen and notes == doc["notes"]
            return
        named = [leaf["context"] for leaf in doc["leaves"]]
        named += [u for rec in doc["audit"] for u in rec["contexts"]]
        labels = {",".join(map(str, u)) or "<root>" for u in named}
        labels |= {n[len("fit at "):n.index(" with ")] for n in fallen}
        assert 2 * len(fallen) > len(labels)
        summary = [n for n in notes if "fell back to intercept only" in n]
        assert summary == [n for n in notes if n not in doc["notes"]]
        assert len(summary) == 1 and len(notes) == len(doc["notes"]) - len(fallen) + 1
        assert summary[0].startswith(f"{len(fallen)} of the {len(labels)} contexts ")

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

    @pytest.mark.parametrize("cell, shown", [
        ("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"), ("1e30", "1e+30"),
        ("9223372036854775808", "9.223372036854776e+18"),
    ])
    def test_non_finite_or_huge_target_exits_three(self, tmp_path, capsys, cell, shown):
        # inf and cells past int64 pass the integer check, and their cast to
        # int64 warns and gives a negative state
        csv_path = write(tmp_path, "five.csv",
                         f"y,x1\n0,0.1\n1,0.2\n{cell},0.3\n0,0.4\n1,0.5\n")
        spec = write(tmp_path, "spec.json",
                     json.dumps({"target": {"column": "y"}, "covariates": [{"column": "x1"}]}))
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        err = capsys.readouterr().err
        assert (f"target column 'y' has a non-finite or out-of-range value {shown} "
                f"at data row 3 after its transform") in err

    @pytest.mark.parametrize("cell, shown", [("-1", "-1.0"), ("0.5", "0.5"), ("-2.5", "-2.5")])
    @pytest.mark.parametrize("transform", ["none", "log_return"])
    def test_negative_or_fractional_target_names_its_row(self, tmp_path, capsys,
                                                         cell, shown, transform):
        # log_return consumes the first row; the data row counts from the
        # first row of the file either way, as for covariates
        csv_path = write(tmp_path, "five.csv",
                         f"y,x1\n0,0.1\n1,0.2\n{cell},0.3\n0,0.4\n1,0.5\n")
        spec = write(tmp_path, "spec.json", json.dumps(
            {"target": {"column": "y"},
             "covariates": [{"column": "x1", "transform": transform}]}))
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        err = capsys.readouterr().err
        assert (f"target column 'y' must yield non-negative integer states, got {shown} "
                f"at data row 3 after its transform") in err

    @pytest.mark.parametrize("first, second, transform", [
        ("1e-300", "1e300", "log_return"),  # the ratio 1e600 overflows to inf
        ("0.1", "inf", "none"),
    ])
    def test_non_finite_covariate_names_its_column(self, tmp_path, capsys,
                                                   first, second, transform):
        csv_path = write(tmp_path, "five.csv",
                         f"y,x1\n0,{first}\n1,{second}\n0,0.3\n1,0.4\n0,0.5\n")
        spec = write(tmp_path, "spec.json", json.dumps(
            {"target": {"column": "y"},
             "covariates": [{"column": "x1", "transform": transform}]}))
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        err = capsys.readouterr().err
        assert "covariate column 'x1' has a non-finite value inf at data row 2" in err

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read ingest spec {}: "),
        ("{not json", "ingest spec {} is not valid JSON: "),
    ], ids=["unreadable", "invalid_json"])
    def test_bad_ingest_spec_exits_three_naming_it(self, tmp_path, capsys, text, message):
        csv_path = write(tmp_path, "six.csv", SIX_ROWS)
        spec = str(tmp_path / "spec.json") if text is None else write(tmp_path, "spec.json", text)
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        assert capsys.readouterr().err.startswith("error: " + message.format(repr(spec)))

    def test_empty_csv_exits_three_naming_it(self, tmp_path, capsys):
        csv_path = write(tmp_path, "empty.csv", "")
        spec = write(tmp_path, "spec.json", json.dumps(HAND_SPEC))
        assert main(["fit", "--data", csv_path, "--ingest", spec]) == 3
        assert capsys.readouterr().err == f"error: {csv_path!r} is empty\n"

    def test_non_numeric_covariate_row_exits_three(self, capsys):
        assert main(["predict", "--model", "model2", "--history", "0,1,0",
                     "--covariates", "1;x"]) == 3
        assert "error: bad covariate row 'x'" in capsys.readouterr().err

    def test_bad_history_exits_three(self, capsys):
        assert main(["predict", "--model", "model1", "--history", "a,b"]) == 3
        capsys.readouterr()

    def test_non_finite_covariate_row_exits_three(self, capsys):
        # leaf 0,1 of model2 reads the two most recent rows: 1 and nan
        assert main(["predict", "--model", "model2", "--history", "0,1,0",
                     "--covariates", "1;nan;1"]) == 3
        assert "covariate rows must be finite" in capsys.readouterr().err

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

    def test_tuning_on_a_stray_label_exits_three(self, tmp_path, capsys):
        # no s of the grid can grow a tree: one data error, not one per s
        rng = np.random.default_rng(3)
        states = rng.integers(0, 2, size=300)
        states[150] = 1000000
        rows = "".join(f"{y},{x}\n" for y, x in zip(states, rng.normal(size=300)))
        csv_path = write(tmp_path, "stray.csv", "y,x1\n" + rows)
        spec = write(tmp_path, "spec.json",
                     json.dumps({"target": {"column": "y"}, "covariates": [{"column": "x1"}]}))
        assert main(["fit", "--data", csv_path, "--ingest", spec, "--tune"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].count("1000000") == 1

    def test_negative_seed_exits_three(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--model", "model2", "--n", "100",
                     "--seed", "-1", "--out", out]) == 3
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert main(["evaluate", "--model", "model2", "--n", "100", "--runs", "2",
                     "--seed", "-1"]) == 3
        assert "base_seed must be >= 0, got -1" in capsys.readouterr().err

    def test_missing_model_file_exits_three(self, capsys):
        assert main(["predict", "--model", "/nope/model.json",
                     "--history", "0,1"]) == 3
        capsys.readouterr()


FAULT_CELLS = ["", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "abc"]
STRAY_LABELS = ["3", "1000", "1000000"]
# what a failing case's one error line must name: a column, a data row or a
# state, or else the length of the data
NAMED_CAUSE = re.compile(
    r"column '(y|x1)'|row \d+|state \d+|n=\d+|data rows|sibling group"
)


@st.composite
def csv_cases(draw):
    """A CSV of a target ``y`` and one covariate ``x1``: labels from up to
    three states (one state gives a constant target), covariates positive or
    of both signs, and up to three cells replaced by a fault: empty, NaN,
    an infinity, 1e±300, text, or in the target a stray label."""
    n = draw(st.integers(1, 80))
    states = draw(st.integers(1, 3))
    ys = [str(v) for v in draw(st.lists(st.integers(0, states - 1), min_size=n, max_size=n))]
    low = draw(st.sampled_from([0.01, -10.0]))
    xs = [repr(v) for v in draw(st.lists(st.floats(low, 10.0), min_size=n, max_size=n))]
    for column, row, cell in draw(st.lists(st.tuples(
            st.sampled_from(["y", "x1"]), st.integers(0, n - 1),
            st.sampled_from(FAULT_CELLS + STRAY_LABELS)), max_size=3)):
        (ys if column == "y" else xs)[row] = cell
    transforms = draw(st.tuples(st.sampled_from(TRANSFORMS), st.sampled_from(TRANSFORMS)))
    return ys, xs, transforms, draw(st.booleans())


class TestCsvFuzz:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        return str(root / "data.csv"), str(root / "ingest.json")

    @settings(max_examples=150, deadline=None)
    @given(case=csv_cases())
    @example(case=(["0", "1", "0", "1"], ["1e-300", "1e300", "1.0", "2.0"],
                   ("none", "log_return"), False))
    @example(case=(["0", "1", "0", "1"], ["1.0", "-0.5", "1.0", "2.0"],
                   ("none", "log_return"), True))
    @example(case=(["0", "1"] * 20 + ["1000000"], ["0.5"] * 41, ("none", "none"), True))
    def test_every_csv_exits_cleanly(self, paths, case):
        ys, xs, (target_how, covariate_how), tune = case
        data, spec = paths
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("y,x1\n" + "".join(f"{y},{x}\n" for y, x in zip(ys, xs)))
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"target": {"column": "y", "transform": target_how},
                       "covariates": [{"column": "x1", "transform": covariate_how}]}, fh)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["fit", "--data", data, "--ingest", spec] + ["--tune"] * tune)
        elapsed = time.perf_counter() - start
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1, lines
            assert lines[0].startswith(("error: ", "numerical failure: ")), lines
            assert NAMED_CAUSE.search(lines[0]) and "np." not in lines[0], lines
        # log_return consumes the first row; a kept label of 10**6 fails fast
        kept = ys[int("log_return" in (target_how, covariate_how)):]
        if target_how == "none" and "1000000" in kept:
            assert code == 3 and elapsed < 0.1, (code, elapsed)
