"""Each paper claim of ``benchmarks/claims.py`` as one pytest case.

    PYTHONPATH=src python -m pytest benchmarks/

``scripts/paper_claims.py --check`` runs the same claims and also holds
their rows to the committed PAPER_CLAIMS.json.
"""

import pytest

from benchmarks.claims import CLAIMS


@pytest.mark.parametrize("name", list(CLAIMS))
def test_claim(name):
    claim = CLAIMS[name]
    claim.check(claim.run())
