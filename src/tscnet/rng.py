"""Deterministic 64-bit xorshift* random number generator.

Everything in this package that needs randomness (weight initialization,
k-means++ seeding, restart streams, train/test shuffles) draws from this one
generator so that a fixed seed reproduces results bit for bit, independent of
platform or library version.

Algorithm, fixed by contract:

* State seeding: one splitmix64 step of the user seed (so seed 0 is usable
  and nearby seeds decorrelate).
* Core step (xorshift64*)::

      x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
      output = x * 0x2545F4914F6CDD1D   (all mod 2^64)

* ``random()`` takes the top 53 bits of the output: ``u >> 11`` times 2^-53,
  giving a float in [0, 1).
* ``below(n)`` is ``next_u64() % n``. The modulo bias is below 2^-50 for any
  n this package uses and is accepted in exchange for a one-line contract.
* ``shuffle`` is a Fisher-Yates pass from the last index down, with
  ``j = below(i + 1)``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step. Returns (output, next_state)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64, state


def derive_seed(seed: int, index: int) -> int:
    """Stable sub-seed for stream ``index`` of a run seeded with ``seed``.

    Used to give k-means restarts independent, order-free streams: restart
    ``r`` behaves the same whether restarts run sequentially or in parallel.
    """
    out, _ = splitmix64((seed ^ (index * _GOLDEN)) & _MASK64)
    return out


class Xorshift64Star:
    """xorshift64* stream with helpers for floats, ints, and shuffles."""

    def __init__(self, seed: int):
        value, _ = splitmix64(seed & _MASK64)
        # xorshift state must never be zero
        self._state = value if value != 0 else _GOLDEN
        self.seed = seed

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def below(self, n: int) -> int:
        """Uniform int in [0, n)."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return self.next_u64() % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
