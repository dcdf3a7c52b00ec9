"""The paper-claims gate in tier-1: Fig. 1, 4 and 5.

Each claim of ``benchmarks/claims.py`` named here must hold and must match
its rows in the committed PAPER_CLAIMS.json; two planted faults must each
break one.  ``scripts/paper_claims.py --check`` runs the whole set (FIG6/7
and EXT-1..12 too) the same way.
"""

import json
import types

import pytest

from benchmarks.claims import CLAIMS
from repro.core import flowtime
from scripts.paper_claims import RECORD, drift, run_claim

GATED = ("FIG1", "FIG4", "FIG5")


@pytest.fixture(scope="module")
def record():
    return {name: run_claim(CLAIMS[name]) for name in GATED}


class TestPaperClaims:
    @pytest.mark.parametrize("name", GATED)
    def test_claim_holds(self, record, name):
        CLAIMS[name].check(record[name]["rows"])
        assert record[name]["verdict"] == "pass"

    @pytest.mark.parametrize("name", GATED)
    def test_rows_match_the_committed_record(self, record, name):
        recorded = json.loads(RECORD.read_text())[name]
        assert drift(name, record[name], recorded) == []


class TestPlantedFaults:
    def test_greedy_planner_breaks_fig1(self, monkeypatch):
        # A lexmin that never answers leaves the planner its degraded mode:
        # EDF water-fill grants run the workflow first, as EDF does.
        monkeypatch.setattr(
            flowtime,
            "lexmin_schedule",
            lambda *args, **kwargs: types.SimpleNamespace(is_optimal=False, warm=False),
        )
        rows = CLAIMS["FIG1"].run()
        assert [row["avg_turnaround"] for row in rows] == [150.0, 150.0]
        with pytest.raises(AssertionError):
            CLAIMS["FIG1"].check(rows)

    def test_ignored_slack_breaks_fig5(self, monkeypatch):
        plain = flowtime.entries_from_demands
        monkeypatch.setattr(
            flowtime,
            "entries_from_demands",
            lambda demands, now, slack, **kwargs: plain(demands, now, 0, **kwargs),
        )
        rows = CLAIMS["FIG5"].run()
        assert all(row["jobs_missed"] > 0 for row in rows)
        with pytest.raises(AssertionError):
            CLAIMS["FIG5"].check(rows)
