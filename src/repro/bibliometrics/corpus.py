"""Synthetic publication corpus.

Each :class:`PaperRecord` has a year, a title assembled from topic phrases,
and a keyword set. The generator is calibrated per topic and year: the
expected number of papers matching the query term "middleware" in year Y
equals the count digitized from the paper's Figure 1, and the companion
topics (distributed systems, network, wireless network) grow earlier and
larger — reproducing the correlation Section 2 reads off the data. Noise is
binomial around the calibration, seeded, so the reproduction is exact in
expectation and stable per seed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.util.rng import split_rng

YEARS = tuple(range(1989, 2002))

#: Topic -> year -> expected matching-paper count. The middleware row is
#: digitized from Figure 1 (first article 1993, 7 in 1994, ~170/year at the
#: plateau); companion rows follow the text's narrative of networks and
#: distributed systems leading middleware.
CALIBRATION: Dict[str, Dict[int, int]] = {
    "middleware": {
        1989: 0, 1990: 0, 1991: 0, 1992: 0, 1993: 1, 1994: 7, 1995: 25,
        1996: 60, 1997: 105, 1998: 140, 1999: 170, 2000: 175, 2001: 170,
    },
    "distributed systems": {
        1989: 80, 1990: 95, 1991: 110, 1992: 130, 1993: 150, 1994: 175,
        1995: 200, 1996: 230, 1997: 260, 1998: 290, 1999: 320, 2000: 345,
        2001: 360,
    },
    "network": {
        1989: 300, 1990: 340, 1991: 390, 1992: 450, 1993: 520, 1994: 600,
        1995: 700, 1996: 820, 1997: 950, 1998: 1100, 1999: 1250, 2000: 1380,
        2001: 1450,
    },
    "wireless network": {
        1989: 5, 1990: 8, 1991: 12, 1992: 18, 1993: 28, 1994: 45, 1995: 70,
        1996: 105, 1997: 150, 1998: 210, 1999: 280, 2000: 360, 2001: 430,
    },
}

_TITLE_TEMPLATES = (
    "A {topic} approach for {domain}",
    "On the design of {topic} for {domain}",
    "{topic} support in {domain}",
    "Evaluating {topic} architectures for {domain}",
    "Towards adaptive {topic} in {domain}",
)

_DOMAINS = (
    "real-time applications", "multimedia services", "mobile computing",
    "embedded devices", "enterprise integration", "sensor applications",
    "telecommunication systems", "industrial control",
)


class PaperRecord:
    """One synthetic publication."""

    __slots__ = ("year", "title", "keywords")

    def __init__(self, year: int, title: str,
                 keywords: Tuple[str, ...]) -> None:
        self.year = year
        self.title = title
        self.keywords = keywords


class CorpusGenerator:
    """Builds the corpus for one seed.

    ``noise`` perturbs each calibrated count with a seeded +/- binomial
    wobble (fraction of the count), modeling indexing variance; 0 gives the
    calibration exactly.
    """

    def __init__(self, seed: int = 0, noise: float = 0.05):
        if not 0.0 <= noise <= 0.5:
            raise ValueError(f"noise must be in [0, 0.5], got {noise!r}")
        self.seed = seed
        self.noise = noise

    def _count_for(self, topic: str, year: int, rng) -> int:
        base = CALIBRATION[topic].get(year, 0)
        if base == 0 or self.noise == 0.0:
            return base
        wobble = int(round(base * self.noise))
        return max(0, base + rng.randint(-wobble, wobble))

    def generate(self) -> List[PaperRecord]:
        """The full corpus, deterministic in the seed."""
        rng = split_rng(self.seed, "bibliometrics-corpus")
        papers: List[PaperRecord] = []
        for topic in sorted(CALIBRATION):
            for year in YEARS:
                for _ in range(self._count_for(topic, year, rng)):
                    template = rng.choice(_TITLE_TEMPLATES)
                    domain = rng.choice(_DOMAINS)
                    title = template.format(topic=topic, domain=domain)
                    keywords = (topic,) + tuple(
                        w for w in domain.split() if len(w) > 4
                    )
                    papers.append(PaperRecord(year, title, keywords))
        return papers
