"""Transport receiver: applies instruction diffs to numbered states.

The receiver keeps every state the sender might still use as a diff source
(bounded by the sender's ``throwaway_num``). Processing is idempotent: a
repeated or reordered instruction whose target state is already known does
nothing, which is why SSP needs no replay cache at the datagram layer.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.errors import StateError
from repro.transport.state import StateObject

S = TypeVar("S", bound=StateObject)


class TransportReceiver(Generic[S]):
    """Tracks the peer's numbered states and applies incoming diffs.

    Stored states are never mutated: a diff is applied to a fresh copy of
    its source, and an empty diff (heartbeat or empty ack) aliases its
    source, storing that same object under the new number.
    """

    def __init__(self, initial_state: S) -> None:
        self._states: dict[int, S] = {0: initial_state.copy()}
        self._latest_num = 0
        self.instructions_applied = 0
        self.duplicates_ignored = 0
        self.unusable_ignored = 0
        #: Instructions whose diff would not apply to its source state.
        self.malformed_ignored = 0

    @property
    def latest_num(self) -> int:
        return self._latest_num

    @property
    def latest_state(self) -> S:
        return self._states[self._latest_num]

    def known_nums(self) -> list[int]:
        """State numbers currently held (diff bases the sender may use)."""
        return sorted(self._states)

    def process_instruction(self, old_num: int, new_num: int, diff: bytes) -> bool:
        """Apply one instruction's diff from state ``old_num`` to
        ``new_num``; returns True if a new state was created.

        A diff that does not apply raises :class:`StateError` and counts
        in :attr:`malformed_ignored`; nothing is stored, because the diff
        was applied to a copy.
        """
        if new_num in self._states:
            self.duplicates_ignored += 1
            return False
        source = self._states.get(old_num)
        if source is None:
            # We lack the diff base — either it was thrown away (stale
            # instruction) or lost (the sender's assumption will time out
            # and it will re-diff from an acknowledged state).
            self.unusable_ignored += 1
            return False
        if diff:
            new_state = source.copy()
            try:
                new_state.apply_diff(diff)
            except Exception as exc:
                self.malformed_ignored += 1
                raise StateError(
                    f"could not apply diff {old_num}->{new_num}"
                ) from exc
        else:
            new_state = source  # stored states are immutable: share it
        self._states[new_num] = new_state
        if new_num > self._latest_num:
            self._latest_num = new_num
        self.instructions_applied += 1
        return True

    def process_throwaway_until(self, throwaway_num: int) -> None:
        """Drop states below ``throwaway_num`` (sender won't reference them)."""
        keep = {
            num: state
            for num, state in self._states.items()
            if num >= throwaway_num or num == self._latest_num
        }
        self._states = keep
