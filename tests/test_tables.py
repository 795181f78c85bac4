"""The one table format: golden text of every writer, and malformed tables rejected with file and line."""

import json
import re

import numpy as np
import pytest

from gfsim.cli import main
from gfsim.genfunc import GfSeries, read_table, write_table
from gfsim.krylov import KrylovSolution, eigen_table_csv, survival_csv
from gfsim.moments import MomentSet
from gfsim.statevector import SimulationError
from gfsim.texpand import EnergyCurve


def test_gf_series_with_an_extra_column(tmp_path):
    series = GfSeries(
        [0.0, 0.5],
        [1.0, 0.5],
        [0.0, -0.25],
        [0.0, 0.125],
        [0.0, 0.0625],
        shots=100,
        route="sampled",
        model="pairing-2",
        seed=3,
        extra={"re_exact": [1.0, 1.0 / 3.0]},
    )
    series.to_csv(tmp_path / "gf.csv")
    assert (tmp_path / "gf.csv").read_text() == (
        "# model=pairing-2\n"
        "# shots=100\n"
        "# seed=3\n"
        "# route=sampled\n"
        "t,re,im,re_err,im_err,re_exact\n"
        "0.0000000000000000e+00,1.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000000e+00\n"
        "5.0000000000000000e-01,5.0000000000000000e-01,-2.5000000000000000e-01,"
        "1.2500000000000000e-01,6.2500000000000000e-02,3.3333333333333331e-01\n"
    )
    back = GfSeries.from_csv(tmp_path / "gf.csv")
    assert np.array_equal(back.extra["re_exact"], [1.0, 1.0 / 3.0])
    assert (back.shots, back.route, back.model, back.seed) == (100, "sampled", "pairing-2", 3)


def test_moment_set_with_diagnostics(tmp_path):
    mom = MomentSet([1.0, 2.0, 5.0], [0.0, 0.5, 0.25], "fourier", source="pairing-2", diagnostics={"rank": 2, "center": 3.0})
    mom.to_csv(tmp_path / "moments.csv")
    assert (tmp_path / "moments.csv").read_text() == (
        "# source=pairing-2\n"
        "# center=3.0\n"
        "# rank=2\n"
        "K,value,err,route\n"
        "0,1.0000000000000000e+00,0.0000000000000000e+00,fourier\n"
        "1,2.0000000000000000e+00,5.0000000000000000e-01,fourier\n"
        "2,5.0000000000000000e+00,2.5000000000000000e-01,fourier\n"
    )
    back = MomentSet.from_csv(tmp_path / "moments.csv")
    assert np.array_equal(back.values, mom.values) and np.array_equal(back.errors, mom.errors)
    assert (back.route, back.source) == ("fourier", "pairing-2")


def test_energy_curve(tmp_path):
    EnergyCurve([0.0, 1.0], [2.0, 1.5], [-1.0, -0.25], 1.25, 1.5).to_csv(tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_text() == (
        "# asymptote=1.2500000000000000e+00\n"
        "# asymptote_grid_end=1.5000000000000000e+00\n"
        "tau,E,dEdtau\n"
        "0.0000000000000000e+00,2.0000000000000000e+00,-1.0000000000000000e+00\n"
        "1.0000000000000000e+00,1.5000000000000000e+00,-2.5000000000000000e-01\n"
    )


def test_krylov_eigen_table(tmp_path):
    solutions = {
        1: KrylovSolution([-1.0, 2.0], [0.75, 0.25], retained_dim=2),
        0: KrylovSolution([0.5], [1.0], retained_dim=1),
    }
    eigen_table_csv(tmp_path / "eigs.csv", solutions)
    assert (tmp_path / "eigs.csv").read_text() == (
        "M,alpha,E,weight,retained_dim\n"
        "0,0,5.0000000000000000e-01,1.0000000000000000e+00,1\n"
        "1,0,-1.0000000000000000e+00,7.5000000000000000e-01,2\n"
        "1,1,2.0000000000000000e+00,2.5000000000000000e-01,2\n"
    )


def test_survival_table(tmp_path):
    # integer grid points are written as floats, like every other numeric cell
    survival_csv(tmp_path / "surv.csv", [0, 2], np.array([1.0, 0.5]), np.array([1.0, 0.625]))
    assert (tmp_path / "surv.csv").read_text() == (
        "t,P0_approx,P0_exact\n"
        "0.0000000000000000e+00,1.0000000000000000e+00,1.0000000000000000e+00\n"
        "2.0000000000000000e+00,5.0000000000000000e-01,6.2500000000000000e-01\n"
    )


def test_read_table_returns_what_write_table_wrote(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, {"a": "x", "b": 2}, ("n", "v", "s"), [(1, 0.5, "p"), (2, -1.0, "q")])
    meta, names, rows = read_table(path, required=("v",))
    assert meta == {"a": "x", "b": "2"}
    assert names == ["n", "v", "s"]
    assert rows == [["1", "5.0000000000000000e-01", "p"], ["2", "-1.0000000000000000e+00", "q"]]


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1.0,0.0,exact\n2,5.0,0.0,exact\n1,2.0,0.0,exact\n", "column K must read 0, 1, ..., 2 in order"),
        ("0,1.0,0.0,exact\nx,2.0,0.0,exact\n", "K cell 'x' is not a number"),
    ],
    ids=["K-out-of-order", "K-not-a-number"],
)
def test_moment_table_rows_follow_the_K_column(tmp_path, rows, message):
    # rows are moments <H^K> only in the order K = 0, 1, ..., L: a table in another order is refused, not reordered
    path = tmp_path / "moments.csv"
    path.write_text("K,value,err,route\n" + rows)
    with pytest.raises(SimulationError, match=re.escape(message)):
        MomentSet.from_csv(path)


# per reader: a two-line head (one meta line, the header), a good row, and one
# core column's header cell renamed
READERS = {
    "gf": (GfSeries.from_csv, "# route=exact\nt,re,im,re_err,im_err\n", "0.0,1.0,0.0,0.0,0.0\n", ("im_err", "im_error")),
    "moments": (MomentSet.from_csv, "# source=x\nK,value,err,route\n", "0,1.0,0.0,exact\n", (",err,", ",error,")),
}
# per case: the file text from a reader's head, row and rename; the line the error names; what it says
MALFORMED = {
    "short-row": (lambda head, row, rename: head + row + row.rsplit(",", 1)[0] + "\n", 4, "cells under a"),
    "long-row": (lambda head, row, rename: head + row + row.strip() + ",7\n", 4, "cells under a"),
    "header-only": (lambda head, row, rename: head, 2, "no data rows"),
    "missing-core-column": (lambda head, row, rename: head.replace(*rename) + row, 2, "missing column(s)"),
    "non-numeric-cell": (lambda head, row, rename: head + row.replace("1.0", "x"), 3, "'x' is not a number"),
    "nan-cell": (lambda head, row, rename: head + row.replace("1.0", "nan"), 3, "'nan' is not a number"),
}


def _malformed(tmp_path, reader, case):
    _, head, row, rename = READERS[reader]
    text, line, message = MALFORMED[case]
    path = tmp_path / f"{reader}.csv"
    path.write_text(text(head, row, rename))
    return path, f"{path}, line {line}: ", message


@pytest.mark.parametrize("case", list(MALFORMED))
@pytest.mark.parametrize("reader", list(READERS))
def test_malformed_table_raises_with_file_and_line(tmp_path, reader, case):
    path, where, message = _malformed(tmp_path, reader, case)
    with pytest.raises(SimulationError) as err:
        READERS[reader][0](path)
    assert str(err.value).startswith(where)
    assert message in str(err.value)


@pytest.mark.parametrize("case", list(MALFORMED))
@pytest.mark.parametrize("reader", list(READERS))
def test_malformed_table_exits_1_through_the_cli(tmp_path, capsys, reader, case):
    path, where, message = _malformed(tmp_path, reader, case)
    cfg = {
        "model": {"kind": "pairing", "levels": 2, "pairs": 1},
        "moments": {"route": "fourier", "order": 3},
        "texpansion": {"order": 3},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    command = ["moments", "--series"] if reader == "gf" else ["texpand", "--moments"]
    out = tmp_path / "out"
    assert main([*command, str(path), "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert where in err and message in err
    assert not list(out.glob("*_manifest.json"))
