"""Masked ring protocols for combining shares without revealing them.

The participants sit on a ring P1 -> P2 -> ... -> Pn -> P1 of pairwise
secure channels.  P1 starts by sending N1 + C1 for a random mask N1; each
Pi adds Ni + Ci to what it received and passes it on; when the total comes
back, P1 strips N1 and broadcasts S = sum(Ci) + sum(N2..Nn) on the open
channel, after which P2..Pn broadcast the running value with their own
masks removed, in ring order, so the last broadcast is the bare sum and
every participant ends holding it.

Two payload domains run the same ring: XOR over fixed-width bit columns
for the all-participants scheme, and arithmetic mod p for the Lagrange
combination sum(c_i * y_i) = f(0) of the threshold scheme, where each
participant weights its own share by the public c_i before the ring.

Every run produces a Transcript of what the channels carried: the payloads
in round order and nothing else.  No participant's input or mask is kept in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from random import Random
from typing import Callable, Sequence, Union

from .scheme import BitColumn, _check_columns, _xor, column_to_int
from .shamir import SharePoint, lagrange_coefficients

__all__ = [
    "Transcript",
    "run_secure_sum",
    "run_secure_linear_combination",
    "export_transcript",
]

Payload = Union[BitColumn, int]


@dataclass(frozen=True)
class Transcript:
    """The 2n payloads of a ring of n >= 3, in round order.  A payload's round
    fixes its route: round i <= n carries Pi's masked running sum to Pi+1
    (Pn's to P1), and round n + i is Pi's broadcast with its own mask
    removed, so the last payload is the bare sum."""

    modulus: int  # p for a run mod p, 0 for an xor run
    payloads: tuple[Payload, ...]

    def __post_init__(self) -> None:
        if len(self.payloads) < 6:
            raise ValueError("the masked ring needs at least 3 participants")
        if len(self.payloads) % 2:
            raise ValueError(f"a ring of n carries 2n payloads, not {len(self.payloads)}")


def _ring(
    inputs: Sequence[Payload],
    masks: Sequence[Payload],
    add: Callable[[Payload, Payload], Payload],
    sub: Callable[[Payload, Payload], Payload],
) -> tuple[Payload, ...]:
    """The 2n payloads of one run, in round order; none for no inputs."""
    hops = list(accumulate(map(add, masks, inputs), add))
    return tuple(hops + list(accumulate([*hops[-1:], *masks], sub))[1:])


def run_secure_sum(inputs: Sequence[Sequence[int]], rng: Random) -> tuple[BitColumn, Transcript]:
    """Masked-ring XOR of private bit columns; returns (sum, transcript)."""
    cols = _check_columns(inputs)
    masks = [tuple(rng.getrandbits(1) for _ in col) for col in cols]
    tr = Transcript(0, _ring(cols, masks, _xor, _xor))
    return tr.payloads[-1], tr


def run_secure_linear_combination(
    shares: Sequence[SharePoint], p: int, rng: Random
) -> tuple[int, Transcript]:
    """Compute f(0) = sum c_i * y_i over the masked ring without revealing
    the y_i; the Lagrange weights c_i are public."""
    coefficients = lagrange_coefficients([s.index for s in shares], p)
    weighted = [c * (s.value % p) % p for c, s in zip(coefficients, shares)]
    masks = [rng.randrange(p) for _ in shares]
    tr = Transcript(p, _ring(weighted, masks, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p))
    return tr.payloads[-1], tr


def _payload_hex(tr: Transcript, payload: Payload) -> str:
    if not tr.modulus:
        return format(column_to_int(payload), f"0{(len(payload) + 3) // 4}x")
    return format(payload, "x")


def export_transcript(tr: Transcript) -> str:
    """Line format: ``round <r> <from>-><to|*> <payload-hex>``, each route
    read off the round as :class:`Transcript` states it."""
    n = len(tr.payloads) // 2
    lines = []
    for r, payload in enumerate(tr.payloads, start=1):
        route = f"{r}->{r % n + 1}" if r <= n else f"{r - n}->*"
        lines.append(f"round {r} {route} {_payload_hex(tr, payload)}")
    return "\n".join(lines) + "\n"
