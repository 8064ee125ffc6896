"""Bibliometrics: the substrate for reproducing Figure 1.

The paper's only quantitative artifact is Figure 1 — the number of
middleware-related references per year returned by keyword queries against
the IEEE Xplore database (plus CiteSeer totals in the text). We have no
database access, so per the substitution rule this package provides:

* :mod:`repro.bibliometrics.corpus` — a seeded synthetic publication corpus
  whose per-year topic mixture is calibrated to the published counts,
* :mod:`repro.bibliometrics.query` — a small keyword query engine (the same
  code path a real index search exercises: tokenize, match, aggregate),
* :mod:`repro.bibliometrics.figure1` — the queries of Section 2 run against
  the corpus, yielding the per-year series, the middleware-vs-networks
  correlation the authors argue from, and an ASCII rendering of the figure.
"""

from repro import _facade

__getattr__, __all__ = _facade(__name__, {
    "CorpusGenerator": "repro.bibliometrics.corpus",
    "PaperRecord": "repro.bibliometrics.corpus",
    "MIDDLEWARE_TARGET_SERIES": "repro.bibliometrics.figure1",
    "Figure1Result": "repro.bibliometrics.figure1",
    "reproduce_figure1": "repro.bibliometrics.figure1",
    "QueryEngine": "repro.bibliometrics.query",
})
