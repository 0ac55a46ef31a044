"""CI oracle sweep for the below-the-window queries.

The external driver's correctness gate compares only the FIRST 50
QUERIES entries against their DuckDB oracles; everything after that is
evidenced by the committed CHECK_QUERIES_r*.txt full-sweep logs.  This
test makes the below-the-fold half a CI invariant (ADVICE r3 #4): every
QUERIES entry past the window that has an ORACLE_SQL is run through Ray
AND DuckDB at sf0.001 and compared with the same normalization the
check script (and the driver) uses.  Rows-only entries (the crawl
pipelines) are pinned by their own oracle-parity tests, not here.
"""

from __future__ import annotations

import os.path as osp

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
DRIVER_WINDOW = 50
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df.columns = [c.lower() for c in df.columns]
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        if str(df[c].dtype).startswith(("uint", "int", "Int")):
            df[c] = df[c].astype("int64")
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _below_window_names():
    from icrawler_ray.queries import ORACLE_SQL, QUERIES

    names = list(QUERIES)[DRIVER_WINDOW:]
    return [n for n in names if n in ORACLE_SQL]


@pytest.mark.skipif(not osp.isdir(SF_DIR), reason="driver testdata absent")
@pytest.mark.parametrize("name", _below_window_names())
def test_below_window_oracle(name, ray_session):
    from icrawler_ray.queries import ORACLE_SQL, QUERIES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    got = _to_pandas(QUERIES[name](SF_DIR))
    want = con.execute(ORACLE_SQL[name]).df()
    got.columns = [c.lower() for c in got.columns]
    want.columns = [c.lower() for c in want.columns]

    # the driver's value hash is dtype-KIND-sensitive (int vs float)
    for col in want.columns:
        if col in got.columns:
            gk, wk = got[col].dtype.kind, want[col].dtype.kind
            assert gk == wk or {gk, wk} <= {"i", "u"}, \
                (name, col, got[col].dtype, want[col].dtype)

    got_n, want_n = _normalize(got), _normalize(want)
    assert list(got_n.columns) == list(want_n.columns), name
    assert len(got_n) == len(want_n), (name, len(got_n), len(want_n))
    pd.testing.assert_frame_equal(got_n, want_n, check_dtype=False,
                                  check_exact=False, atol=1e-6, rtol=1e-6)


def _brunner_munzel_w(x1, x2) -> tuple[float, float]:
    """(W, relative effect) of the Brunner-Munzel test from explicit
    tie-averaged ranks — pooled and within each sample — independent of
    the value-count-grid fold the query and its SQL oracle share."""
    import numpy as np

    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    n1, n2 = len(x1), len(x2)
    pooled = pd.Series(np.concatenate([x1, x2])).rank(method="average").to_numpy()
    rc1, rc2 = pooled[:n1], pooled[n1:]
    ri1 = pd.Series(x1).rank(method="average").to_numpy()
    ri2 = pd.Series(x2).rank(method="average").to_numpy()
    s1 = ((rc1 - ri1 - rc1.mean() + (n1 + 1) / 2) ** 2).sum() / (n1 - 1)
    s2 = ((rc2 - ri2 - rc2.mean() + (n2 + 1) / 2) ** 2).sum() / (n2 - 1)
    w = n1 * n2 * (rc2.mean() - rc1.mean()) / ((n1 + n2) * np.sqrt(n1 * s1 + n2 * s2))
    return float(w), float((rc2.mean() - (n2 + 1) / 2) / n1)


def test_brunner_munzel_oracle_is_canonical():
    # published example (Brunner & Munzel 2000; also scipy's docs)
    w, _ = _brunner_munzel_w([1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 1, 1],
                             [3, 3, 4, 3, 1, 2, 3, 1, 1, 5, 4])
    assert w == pytest.approx(3.1374674823029505, rel=1e-12)


@pytest.mark.skipif(not osp.isdir(SF_DIR), reason="driver testdata absent")
def test_brunner_munzel_matches_rank_oracle(ray_session):
    """q_brunner_munzel (weekend vs weekday purchase values, in cents)
    equals the explicit-rank oracle."""
    import numpy as np

    from icrawler_ray.queries import QUERIES

    ev = pd.read_parquet(f"{SF_DIR}/events.parquet", columns=["ts", "event_type", "value"])
    ev = ev[ev["event_type"] == "purchase"]
    cents = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    weekend = (pd.to_datetime(ev["ts"]).dt.dayofweek >= 5).to_numpy()
    w, p_hat = _brunner_munzel_w(cents[weekend], cents[~weekend])
    got = _to_pandas(QUERIES["brunner_munzel"](SF_DIR)).iloc[0]
    assert (got["n_weekend"], got["n_weekday"]) == (weekend.sum(), (~weekend).sum())
    assert got["bm_w"] == pytest.approx(w, abs=1e-6)
    assert got["relative_effect"] == pytest.approx(p_hat, abs=1e-6)


def _wau_trend_both(tmp_path, weekly_users) -> tuple[pd.Series, pd.Series]:
    """q_wau_trend and SQL_WAU_TREND over an ``events`` table whose ISO
    weeks 2024-W01.. have ``weekly_users[k]`` distinct users (each user
    twice in the week, so the distinct count matters)."""
    import warnings

    import numpy as np

    from icrawler_ray.queries import SQL_WAU_TREND, q_wau_trend

    rows = [(pd.Timestamp("2024-01-01") + pd.Timedelta(days=7 * k + r % 5, hours=r), u)
            for k, m in enumerate(weekly_users) for u in range(m) for r in (0, 3)]
    ev = pd.DataFrame({"event_id": np.arange(len(rows), dtype=np.int64),
                       "ts": pd.to_datetime([t for t, _ in rows]).astype("datetime64[us]"),
                       "user_id": np.array([u for _, u in rows], np.int64),
                       "event_type": "view", "value": 0.0, "props": "{}"})
    ev.to_parquet(tmp_path / "events.parquet", index=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _to_pandas(q_wau_trend(str(tmp_path))).iloc[0]
    want = duckdb.connect().execute(SQL_WAU_TREND.replace(
        "FROM events", f"FROM read_parquet('{tmp_path}/events.parquet')")).df().iloc[0]
    return got, want


def test_wau_trend_exact_fit_is_nan(tmp_path, ray_session):
    """Exactly linear weekly counts leave no residual: t is undefined,
    NaN on the engine (without a warning) and NULL in the oracle."""
    import math

    got, want = _wau_trend_both(tmp_path, [2, 4, 6, 8])
    assert got["n_weeks"] == want["n_weeks"] == 4
    assert got["slope"] == want["slope"] == 2.0
    assert math.isnan(got["t_stat"]) and math.isnan(want["t_stat"])


def test_wau_trend_t_stat_by_hand(tmp_path, ray_session):
    """Weekly users 1, 3, 2, 4 over x = 0..3: slope Sxy/Sxx = 4/5 = 0.8,
    residuals -0.3, 0.9, -0.9, 0.3, so SSR = 1.8, s² = 0.9,
    se = √(0.9/5) and t = 0.8/√0.18 = 4√2/3."""
    got, want = _wau_trend_both(tmp_path, [1, 3, 2, 4])
    assert got["slope"] == want["slope"] == 0.8
    assert got["t_stat"] == want["t_stat"] == round(4 * 2 ** 0.5 / 3, 6)
