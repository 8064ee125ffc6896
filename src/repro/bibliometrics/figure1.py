"""Figure 1, reproduced.

Runs the paper's four queries — middleware, distributed systems, network,
wireless network — against the synthetic corpus and reports:

* the middleware references-per-year series (the figure itself),
* the paper's headline checkpoints (first article in 1993; 7 articles in
  1994; ~170/year at the plateau),
* the positive correlation between the middleware series and the
  networks/distributed-systems series that Section 2 argues from.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bibliometrics.corpus import CALIBRATION, CorpusGenerator, YEARS
from repro.bibliometrics.query import QueryEngine, pearson_correlation

#: The digitized target: what the printed figure shows for "middleware".
MIDDLEWARE_TARGET_SERIES: Dict[int, int] = dict(CALIBRATION["middleware"])

QUERIES = ("middleware", "distributed systems", "network", "wireless network")


class Figure1Result:
    """Everything the figure (and the surrounding text) claims."""

    __slots__ = ("series", "first_middleware_year", "middleware_1994",
                 "plateau_mean", "correlation_with_network",
                 "correlation_with_distributed")

    def __init__(self, series: Dict[str, Dict[int, int]],
                 first_middleware_year: int, middleware_1994: int,
                 plateau_mean: float, correlation_with_network: float,
                 correlation_with_distributed: float) -> None:
        self.series = series  # query -> year -> count
        self.first_middleware_year = first_middleware_year
        self.middleware_1994 = middleware_1994
        self.plateau_mean = plateau_mean  # mean of 1999-2001
        self.correlation_with_network = correlation_with_network
        self.correlation_with_distributed = correlation_with_distributed

    def render_ascii(self, width: int = 50) -> str:
        """The bar chart, in the terminal."""
        counts = self.series["middleware"]
        peak = max(counts.values()) or 1
        lines = ["Figure 1: middleware references per year (reproduced)"]
        for year in YEARS:
            count = counts.get(year, 0)
            bar = "#" * int(round(width * count / peak))
            lines.append(f"{year}  {count:>4}  {bar}")
        return "\n".join(lines)


def reproduce_figure1(seed: int = 0, noise: float = 0.05) -> Figure1Result:
    """Generate the corpus, run the queries, aggregate the claims."""
    corpus = CorpusGenerator(seed=seed, noise=noise).generate()
    engine = QueryEngine(corpus)
    series = {query: engine.counts_by_year(query) for query in QUERIES}

    middleware = series["middleware"]
    first_year = min((y for y, c in middleware.items() if c > 0), default=0)
    plateau_years = [1999, 2000, 2001]
    plateau = sum(middleware.get(y, 0) for y in plateau_years) / len(plateau_years)

    def aligned(query: str) -> List[float]:
        return [float(series[query].get(y, 0)) for y in YEARS]

    return Figure1Result(
        series=series,
        first_middleware_year=first_year,
        middleware_1994=middleware.get(1994, 0),
        plateau_mean=plateau,
        correlation_with_network=pearson_correlation(
            aligned("middleware"), aligned("network")
        ),
        correlation_with_distributed=pearson_correlation(
            aligned("middleware"), aligned("distributed systems")
        ),
    )
