"""Line-level language identification from character trigram profiles.

The seed corpus of each of exactly two languages, with its lowercased copy
so that lines keep working after the pipeline's lowercasing stage, is
compiled into smoothed trigram log-probabilities.  One table maps each
trigram to a ``complex`` whose real part is the first language's
log-probability and whose imaginary part the second's.  CPython adds
complex numbers part by part, so one left-to-right fold of a line's values
gives both scores, each bit for bit the float fold of that language alone,
and the two scores give a posterior.  The values of the trigrams within a
word (those of ``" " + word + " "``) are kept in a memo of at most
``_MEMO_ENTRIES`` words, cleared when full; only the trigram spanning two
adjacent words is looked up per line.  The values are folded in the order
of the line's trigrams, so a score does not depend on the memo.
"""

import math
import operator
from collections import Counter
from functools import reduce

UNKNOWN = "unknown"

# Words whose trigram values the memo keeps; at about 240 bytes a word
# (key, tuple, dict slot) a full memo holds about 2 MB.
_MEMO_ENTRIES = 8192

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
    """Smoothed trigram language scorer over exactly two languages."""

    def __init__(self, seeds: dict[str, str]):
        if len(seeds) != 2:
            raise ValueError(f"need exactly two languages to discriminate, got {len(seeds)}")
        self.languages = sorted(seeds)
        counts = [Counter(_trigrams(seeds[lang]) + _trigrams(seeds[lang].lower()))
                  for lang in self.languages]
        smooth_vocab = len(counts[0].keys() | counts[1].keys()) + 1
        profiles = []
        for c in counts:
            total = sum(c.values()) + smooth_vocab
            profiles.append(({g: math.log((n + 1) / total) for g, n in c.items()}, math.log(1 / total)))
        (first, first_unseen), (second, second_unseen) = profiles
        # trigram -> complex(first language's log-probability, second's)
        self._table = {g: complex(first.get(g, first_unseen), second.get(g, second_unseen))
                       for g in first.keys() | second.keys()}
        self._unseen = complex(first_unseen, second_unseen)
        self._memo: dict[str, tuple[complex, ...]] = {}

    def classify(self, line: str) -> tuple[str, float]:
        """Best language and its posterior probability; UNKNOWN for letterless lines.

        On a tie the first of the sorted languages wins.
        """
        if not any(ch.isalpha() for ch in line):
            return UNKNOWN, 0.0
        get, unseen, memo = self._table.get, self._unseen, self._memo
        values = []
        prev = None
        # The trigrams of _trigrams(line) in order: within the first word,
        # then per next word the one spanning the gap and those within the
        # word.
        for word in line.split():
            grams = memo.get(word)
            if grams is None:
                if len(memo) >= _MEMO_ENTRIES:
                    memo.clear()
                padded = " " + word + " "
                grams = memo[word] = tuple([get(padded[i : i + 3], unseen) for i in range(len(word))])
            if prev is not None:
                values.append(get(prev[-1] + " " + word[0], unseen))
            values.extend(grams)
            prev = word
        # A plain left-to-right fold, as a per-gram loop adds: the builtin
        # sum compensates its rounding since Python 3.12, and it, fsum,
        # numpy or partial sums would make the score bits, and with them
        # the routing, depend on the interpreter.
        total = reduce(operator.add, values, 0j)
        first, second = total.real, total.imag
        top, gap = (1, first - second) if second > first else (0, second - first)
        return self.languages[top], 1.0 / (1.0 + math.exp(gap))


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
