"""Fixed-width two-state bit vector arithmetic.

The simulator and constant-folding passes are two-state (0/1): the paper's
pipeline only needs value comparison between a DUT and a reference module, so
X/Z propagation is unnecessary.  Widths follow Chisel/FIRRTL conventions:

* ``+`` / ``-`` produce ``max(w_a, w_b)`` bits (wrapping) while ``+&`` / ``-&``
  produce ``max(w_a, w_b) + 1`` bits (expanding);
* ``*`` produces ``w_a + w_b`` bits;
* comparison operators produce a 1-bit unsigned result;
* concatenation produces ``w_a + w_b`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass


def mask(width: int) -> int:
    """Return an all-ones integer of ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def min_width_for(value: int, signed: bool = False) -> int:
    """Return the minimum number of bits needed to represent ``value``.

    Unsigned values need ``value.bit_length()`` bits (at least 1).  Signed
    values need one extra sign bit; negative values follow two's complement.
    """
    if not signed:
        if value < 0:
            raise ValueError("unsigned literal cannot be negative")
        return max(1, value.bit_length())
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1


def to_unsigned(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits, interpreting the result as unsigned."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits, interpreting the result as two's complement."""
    if width == 0:
        return 0
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


@dataclass(frozen=True)
class Bits:
    """An immutable fixed-width hardware value.

    ``value`` is always stored as the unsigned (masked) representation;
    ``signed`` controls how arithmetic and comparisons interpret it.
    """

    value: int
    width: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"Bits width must be non-negative, got {self.width}")
        object.__setattr__(self, "value", self.value & mask(self.width))

    # -- interpretation ----------------------------------------------------

    @property
    def as_int(self) -> int:
        """The Python integer this value represents (sign-aware)."""
        if self.signed:
            return to_signed(self.value, self.width)
        return self.value

    @property
    def as_bool(self) -> bool:
        return self.value != 0

    def __index__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.as_bool

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def from_int(value: int, width: int | None = None, signed: bool = False) -> "Bits":
        """Build a :class:`Bits` from a Python int, inferring width if omitted."""
        if width is None:
            width = min_width_for(value, signed=signed)
        return Bits(value, width, signed)

    @staticmethod
    def bool_(flag: bool) -> "Bits":
        return Bits(1 if flag else 0, 1, False)

    # -- bit access ---------------------------------------------------------

    def bit(self, index: int) -> "Bits":
        """Extract a single bit as a 1-bit unsigned value."""
        if index < 0 or index >= self.width:
            raise IndexError(
                f"bit index {index} is out of bounds (min 0, max {self.width - 1})"
            )
        return Bits((self.value >> index) & 1, 1, False)

    def extract(self, hi: int, lo: int) -> "Bits":
        """Extract bits ``hi`` down to ``lo`` inclusive as an unsigned value."""
        if lo < 0 or hi >= self.width or hi < lo:
            raise IndexError(
                f"bit range [{hi}:{lo}] is out of bounds for width {self.width}"
            )
        return Bits((self.value >> lo) & mask(hi - lo + 1), hi - lo + 1, False)

    # -- width / sign conversion ---------------------------------------------

    def resize(self, width: int) -> "Bits":
        """Truncate or sign-/zero-extend to ``width`` bits, keeping signedness."""
        if width == self.width:
            return self
        if width > self.width:
            return Bits(to_unsigned(self.as_int, width), width, self.signed)
        return Bits(self.value & mask(width), width, self.signed)

    # -- arithmetic ----------------------------------------------------------

    def _result_width(self, other: "Bits") -> int:
        return max(self.width, other.width)

    def _binary_signed(self, other: "Bits") -> bool:
        return self.signed and other.signed

    def add(self, other: "Bits") -> "Bits":
        w = self._result_width(other)
        return Bits(self.as_int + other.as_int, w, self._binary_signed(other))

    def add_expand(self, other: "Bits") -> "Bits":
        w = self._result_width(other) + 1
        return Bits(self.as_int + other.as_int, w, self._binary_signed(other))

    def sub(self, other: "Bits") -> "Bits":
        w = self._result_width(other)
        return Bits(self.as_int - other.as_int, w, self._binary_signed(other))

    def mul(self, other: "Bits") -> "Bits":
        w = self.width + other.width
        return Bits(self.as_int * other.as_int, w, self._binary_signed(other))

    def div(self, other: "Bits") -> "Bits":
        signed = self._binary_signed(other)
        w = self.width + (1 if signed else 0)
        if other.as_int == 0:
            return Bits(0, w, signed)
        quotient = abs(self.as_int) // abs(other.as_int)
        if (self.as_int < 0) != (other.as_int < 0):
            quotient = -quotient
        return Bits(quotient, w, signed)

    def rem(self, other: "Bits") -> "Bits":
        signed = self._binary_signed(other)
        w = min(self.width, other.width)
        if other.as_int == 0:
            return Bits(0, w, signed)
        remainder = abs(self.as_int) % abs(other.as_int)
        if self.as_int < 0:
            remainder = -remainder
        return Bits(remainder, w, signed)

    def neg(self) -> "Bits":
        return Bits(-self.as_int, self.width + 1, True)

    # -- bitwise ---------------------------------------------------------------

    def bit_and(self, other: "Bits") -> "Bits":
        w = self._result_width(other)
        return Bits(self.value & other.value, w, False)

    def bit_or(self, other: "Bits") -> "Bits":
        w = self._result_width(other)
        return Bits(self.value | other.value, w, False)

    def bit_xor(self, other: "Bits") -> "Bits":
        w = self._result_width(other)
        return Bits(self.value ^ other.value, w, False)

    def bit_not(self) -> "Bits":
        return Bits(~self.value, self.width, False)

    def and_reduce(self) -> "Bits":
        return Bits.bool_(self.value == mask(self.width) and self.width > 0)

    def or_reduce(self) -> "Bits":
        return Bits.bool_(self.value != 0)

    def xor_reduce(self) -> "Bits":
        return Bits.bool_(bin(self.value).count("1") % 2 == 1)

    def popcount(self) -> "Bits":
        count = bin(self.value).count("1")
        return Bits.from_int(count, max(1, min_width_for(self.width)))

    # -- shifts -----------------------------------------------------------------

    def shl(self, amount: int) -> "Bits":
        return Bits(self.value << amount, self.width + amount, self.signed)

    def shr(self, amount: int) -> "Bits":
        w = max(1, self.width - amount)
        return Bits(self.as_int >> amount, w, self.signed)

    def dshl(self, other: "Bits") -> "Bits":
        return Bits(self.value << other.value, self.width + mask(other.width).bit_length(), self.signed)

    def dshr(self, other: "Bits") -> "Bits":
        return Bits(self.as_int >> other.value, self.width, self.signed)

    # -- comparisons ------------------------------------------------------------

    def eq(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int == other.as_int)

    def neq(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int != other.as_int)

    def lt(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int < other.as_int)

    def le(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int <= other.as_int)

    def gt(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int > other.as_int)

    def ge(self, other: "Bits") -> "Bits":
        return Bits.bool_(self.as_int >= other.as_int)

    # -- structural -----------------------------------------------------------

    def cat(self, other: "Bits") -> "Bits":
        """Concatenate with ``self`` as the most-significant part."""
        return Bits((self.value << other.width) | other.value, self.width + other.width, False)

    def replicate(self, times: int) -> "Bits":
        if times < 0:
            raise ValueError("replication count must be non-negative")
        result = Bits(0, 0)
        for _ in range(times):
            result = result.cat(self)
        return result

    def reverse(self) -> "Bits":
        out = 0
        for i in range(self.width):
            out = (out << 1) | ((self.value >> i) & 1)
        return Bits(out, self.width, False)

    # -- misc --------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sign = "S" if self.signed else "U"
        return f"Bits({self.as_int}, {sign}{self.width})"
