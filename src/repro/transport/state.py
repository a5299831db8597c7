"""The abstract object interface SSP synchronizes.

SSP works on any object that can produce a logical diff between two of its
states and apply such a diff. "The ultimate semantics of the protocol
depend on the type of object, and are not dictated by SSP" (§2.3): for user
input the diff contains every intervening keystroke; for screen states it
is the minimal message that transforms one frame into another.

The key algebraic law — enforced by property-based tests — is the
round trip::

    b2 = a.copy(); b2.apply_diff(b.diff_from(a))  =>  b2 == b
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TypeVar

S = TypeVar("S", bound="StateObject")


class StateObject(ABC):
    """A synchronizable state object.

    Besides the round-trip law, the transport relies on two rules, because
    it shares equal states instead of copying them:

    * ``subtract`` is idempotent: one snapshot may back several sent
      states, so it may be pruned by the same prefix more than once.
    * Nothing mutates ``Transport.remote_state`` or a stored snapshot. A
      state equal to one already stored (equal fingerprints) may be that
      same object, so a mutation would change every state sharing it.
    """

    @abstractmethod
    def copy(self: S) -> S:
        """Deep-copy this state."""

    @abstractmethod
    def diff_from(self: S, source: S) -> bytes:
        """The logical diff that takes ``source`` to ``self``.

        May be lossy in history (e.g. skipping intermediate screens) but
        must satisfy the round-trip law above.
        """

    @abstractmethod
    def apply_diff(self, diff: bytes) -> None:
        """Mutate this state by applying a diff produced by ``diff_from``."""

    @abstractmethod
    def __eq__(self, other: object) -> bool: ...

    def __hash__(self) -> int:  # states are mutable; identity hash
        return id(self)

    def subtract(self: S, prefix: S) -> None:
        """Discard history already known to the receiver.

        Called by the sender once a state has been acknowledged, so
        history-accumulating objects (user input) stay bounded. Must be
        idempotent. Default: nothing to prune.
        """

    def fingerprint(self) -> int | None:
        """Cheap change detector.

        If two states of the same lineage return equal non-None
        fingerprints they MUST be equal; unequal fingerprints may still be
        equal states (the sender then falls back to a real comparison or
        diff). Return None to force full comparisons.
        """
        return None
