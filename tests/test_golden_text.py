"""Canonical text is the key of every formula variable and witness entry and
the sort key of premise sets, so the printers' output is pinned byte for
byte.  ``tests/data/golden_prop.txt`` and ``golden_ppl.txt`` hold, one per
line, the texts of ``helpers.golden_corpus(2016, 2000)`` as the printers
gave them before ``prop`` and ``ppl`` shared one connective layer.  A change
that means to alter canonical text must rewrite them on purpose.
"""

from pathlib import Path

import pytest

from pplogic import ppl, prop

from .helpers import golden_corpus

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus(2016, 2000)


@pytest.mark.parametrize(
    "language, index, name", [(prop, 0, "golden_prop.txt"), (ppl, 1, "golden_ppl.txt")]
)
def test_corpus_text_is_pinned(corpus, language, index, name):
    formulas = corpus[index]
    texts = (DATA / name).read_text(encoding="utf-8").splitlines()
    assert len(texts) == len(formulas)
    for f, text in zip(formulas, texts):
        assert language.to_text(f) == text
        assert language.parse(text) == f
