"""The package's subword search and characteristic formula on explicit words.

The package evaluates a target only along its minimized word.  The value
must not depend on that choice, and the tests check it through
`characteristic_with_word`.  `subwords_equal_to` runs the subword search
on any word, reduced or not.
"""

from schubert.characteristics import _characteristic_on_word, _subword_solutions
from schubert.weyl import WeylElement


def subwords_equal_to(word, target: WeylElement):
    """All 1-based position sets I of `word` with sigma_I = target, |I| = l(target).

    >>> from schubert.cartan import LieType
    >>> s1 = WeylElement.from_word(LieType.parse("A2"), (1,))
    >>> subwords_equal_to((1, 2, 1), s1)
    [(1,), (3,)]
    """
    sols = _subword_solutions(
        target.lie_type, tuple(word), target.inv_root_rows, len(target.word)
    )
    return sorted(tuple(p + 1 for p in sol) for sol in sols)


def characteristic_with_word(table, word, factors):
    """The coefficient of the target w = sigma_word in the product of the factors."""
    word = tuple(word)
    if len(WeylElement.from_word(table.lie_type, word).word) != len(word):
        raise ValueError(f"{word} is not a reduced word")
    if sum(f.r for f in factors) != len(word):
        raise ValueError("degree mismatch between word and factors")
    elements = [table.element(f.r, f.i) for f in factors]
    return _characteristic_on_word(table.lie_type, word, elements)
