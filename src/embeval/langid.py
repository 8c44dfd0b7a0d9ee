"""Line-level language identification from character trigram profiles.

A small seed corpus per language is compiled into smoothed trigram
log-probabilities at import time; a line is scored by summing the log
probability of each of its trigrams under every profile and converting the
scores into a posterior over the configured languages.

Profiles are built over the seed text and its lowercased copy, so lines
keep working after the pipeline's lowercasing stage while capitalization
still contributes signal when present.
"""

import math
import operator
from collections import Counter
from functools import reduce
from itertools import repeat

UNKNOWN = "unknown"

_DE_SEED = """
Die soziale Ungleichheit in der modernen Gesellschaft ist ein zentrales Thema
der Sozialwissenschaften. Viele Studien untersuchen den Zusammenhang zwischen
Bildung, Einkommen und gesellschaftlicher Teilhabe. Der Wandel der Arbeitswelt
verändert die Lebensläufe der Menschen grundlegend. Forscherinnen und Forscher
analysieren Daten aus Umfragen und amtlichen Statistiken. Die Ergebnisse
zeigen deutliche Unterschiede zwischen den Regionen und sozialen Schichten.
Außerdem spielt die Herkunft eine wichtige Rolle für den Zugang zu höherer
Bildung. Die Untersuchung stützt sich auf eine repräsentative Stichprobe der
Bevölkerung. Im Mittelpunkt stehen Fragen nach Macht, Herrschaft und
staatlicher Ordnung. Wirtschaftliches Wachstum allein verringert die Armut
nicht automatisch. Zahlreiche Veröffentlichungen beschäftigen sich mit der
Entwicklung des Wohlfahrtsstaates. Die Befragten gaben an, dass sie ihrer
Nachbarschaft vertrauen. Zwischen Stadt und Land bestehen erhebliche
Unterschiede in der Versorgung. Die Ergebnisse wurden in einer Fachzeitschrift
veröffentlicht und breit diskutiert. Eine qualitative Auswertung der
Interviews ergänzt die statistische Analyse. Die Teilnehmerinnen und
Teilnehmer wurden zufällig ausgewählt. Die Arbeitslosigkeit sank im Verlauf
des Jahrzehnts deutlich. Der Vergleich der Kohorten zeigt einen klaren Trend
zur späteren Familiengründung. Viele Gemeinden fördern ehrenamtliches
Engagement durch eigene Programme. Schließlich wird die Bedeutung kultureller
Faktoren für das Wahlverhalten erörtert.
"""

_EN_SEED = """
Social inequality in modern societies is a central topic of the social
sciences. Many studies examine the relationship between education, income,
and participation in public life. Researchers analyze survey data and
official statistics to understand processes of social change. The results
show clear differences between regions and social groups. Access to higher
education still depends strongly on family background. The study draws on a
representative sample of the adult population. Questions of power, authority,
and the state are at the center of the debate. Economic growth alone does not
automatically reduce poverty. Numerous publications deal with the development
of the welfare state after the war. Respondents reported that they trust
their neighbors and local institutions. There are considerable differences
between urban and rural areas in service provision. The findings were
published in a peer reviewed journal and widely discussed. A qualitative
analysis of the interviews complements the statistical models. Participants
were selected at random from the register. Unemployment declined noticeably
over the course of the decade. Comparing cohorts reveals a clear trend toward
later family formation. Many communities support volunteering through
dedicated programs. Finally, the importance of cultural factors for voting
behavior is discussed.
"""


def _trigrams(text: str) -> list[str]:
    # str.split and re's \s agree on whitespace; split-and-join is the faster
    # of the two ways to collapse it.
    padded = " " + " ".join(text.split()) + " "
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


class TrigramClassifier:
    """Smoothed trigram language scorer over a fixed language set."""

    def __init__(self, seeds: dict[str, str]):
        if len(seeds) < 2:
            raise ValueError("need at least two languages to discriminate")
        self.languages = sorted(seeds)
        counts = {
            lang: Counter(_trigrams(seed) + _trigrams(seed.lower()))
            for lang, seed in seeds.items()
        }
        vocab = set()
        for c in counts.values():
            vocab.update(c)
        self._smooth_vocab = len(vocab) + 1
        self._logprob: dict[str, dict[str, float]] = {}
        self._fallback: dict[str, float] = {}
        for lang in self.languages:
            total = sum(counts[lang].values()) + self._smooth_vocab
            self._logprob[lang] = {
                g: math.log((n + 1) / total) for g, n in counts[lang].items()
            }
            self._fallback[lang] = math.log(1 / total)

    def classify(self, line: str) -> tuple[str, float]:
        """Best language and its posterior probability; UNKNOWN for letterless lines."""
        if not any(ch.isalpha() for ch in line):
            return UNKNOWN, 0.0
        grams = _trigrams(line)
        scores = {}
        for lang in self.languages:
            # A plain left-to-right fold, as a per-gram loop adds: the builtin
            # sum compensates its rounding since Python 3.12, and it, fsum,
            # numpy or partial sums would make the score bits, and with them
            # the routing, depend on the interpreter.
            scores[lang] = reduce(
                operator.add, map(self._logprob[lang].get, grams, repeat(self._fallback[lang])), 0.0
            )
        top = max(self.languages, key=lambda lang: scores[lang])
        peak = scores[top]
        denom = reduce(operator.add, (math.exp(s - peak) for s in scores.values()), 0.0)
        return top, 1.0 / denom


_default: TrigramClassifier | None = None


def default_classifier() -> TrigramClassifier:
    global _default
    if _default is None:
        _default = TrigramClassifier({"de": _DE_SEED, "en": _EN_SEED})
    return _default


def classify_line_language(line: str, threshold: float = 0.7) -> tuple[str, float]:
    """Language tag and confidence for one line by the default classifier;
    UNKNOWN below the threshold."""
    lang, confidence = default_classifier().classify(line)
    if lang != UNKNOWN and confidence < threshold:
        return UNKNOWN, confidence
    return lang, confidence
