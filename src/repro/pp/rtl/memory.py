"""Backing main memory shared by the I- and D-cache refill paths."""

from __future__ import annotations

from typing import Dict, List

from repro.pp.isa import WORD_MASK

#: Words per cache line (both caches use the same line size).
LINE_WORDS = 4
#: Byte size of a line (word = 4 bytes).
LINE_BYTES = LINE_WORDS * 4
#: ``address >> LINE_SHIFT`` numbers the line holding a (32-bit) address.
LINE_SHIFT = LINE_BYTES.bit_length() - 1


def line_base(address: int) -> int:
    """Byte address of the start of the line containing ``address``."""
    return address & ~(LINE_BYTES - 1) & WORD_MASK


def word_in_line(address: int) -> int:
    """Index of the addressed word within its line (0..LINE_WORDS-1)."""
    return (address & (LINE_BYTES - 1)) >> 2


class MainMemory:
    """Word-addressed main memory, default-zero.

    Lines are read/written as lists of words; single-word access is used by
    the spill-buffer write-back path and by tests.
    """

    def __init__(self):
        self._words: Dict[int, int] = {}

    def read_word(self, address: int) -> int:
        return self._words.get(address & ~0x3 & WORD_MASK, 0)

    def write_word(self, address: int, value: int) -> None:
        self._words[address & ~0x3 & WORD_MASK] = value & WORD_MASK

    def read_line(self, address: int) -> List[int]:
        base = line_base(address)
        return [self.read_word(base + 4 * i) for i in range(LINE_WORDS)]

    def read_line_critical_first(self, address: int) -> List[int]:
        """Line words ordered critical-word-first with wraparound."""
        base = line_base(address)
        critical = word_in_line(address)
        return [
            self.read_word(base + 4 * ((critical + i) % LINE_WORDS))
            for i in range(LINE_WORDS)
        ]

    def write_line(self, address: int, words: List[int]) -> None:
        if len(words) != LINE_WORDS:
            raise ValueError(f"line must be {LINE_WORDS} words, got {len(words)}")
        base = line_base(address)
        for i, word in enumerate(words):
            self.write_word(base + 4 * i, word)

    def load_program(self, base: int, words: List[int]) -> None:
        """Place encoded instruction words starting at byte address ``base``."""
        for i, word in enumerate(words):
            self.write_word(base + 4 * i, word)

    def as_dict(self) -> Dict[int, int]:
        """Snapshot of non-zero words (for architectural comparison)."""
        return {a: v for a, v in self._words.items() if v != 0}
