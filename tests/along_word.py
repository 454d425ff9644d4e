"""The characteristic formula along an explicit reduced word of the target.

The package evaluates a target only along its minimized word.  The value
must not depend on that choice, and the tests check it through this helper.
"""

from schubert.characteristics import _characteristic_on_word
from schubert.weyl import WeylElement


def characteristic_with_word(table, word, factors):
    """The coefficient of the target w = sigma_word in the product of the factors."""
    word = tuple(word)
    if WeylElement.from_word(table.lie_type, word).length() != len(word):
        raise ValueError(f"{word} is not a reduced word")
    if sum(f.r for f in factors) != len(word):
        raise ValueError("degree mismatch between word and factors")
    elements = [table.element(f.r, f.i) for f in factors]
    return _characteristic_on_word(table.lie_type, word, elements)
