"""The fabric's live-flow table: arrival order, O(1) removal, and an
incrementally maintained coalescing-group index.

Replaces the plain ``list`` the :class:`~repro.netsim.flows.Fabric` used to
keep its flows in (``list.remove`` was O(F) per finished flow), and the
from-scratch ``(src, dst, tag)`` regroup its ``_recompute`` ran over that
list on every reshare.  Three invariants keep the table bit-for-bit
interchangeable with the list it replaces:

* **Arrival order.**  Flows iterate in admission order: the table is an
  insertion-ordered dict, and deleting a key never reorders the rest.  The
  fabric's meter credits stay sequential, in that order.
* **Group order.**  The solver sees one variable per group, in order of
  first appearance over the live flows in arrival order -- exactly what
  the from-scratch regroup produced.  A group's place is fixed by the
  arrival number of its oldest live member (its *head*): a new group has
  the youngest head and is appended, a dead group is dropped, and a group
  whose head leaves while others stay moves to where its new head
  belongs.  Swap-remove would be O(1) as well, but it reorders the solver
  inputs, which changes memo keys and ``bincount`` summation order.
* **Group weights.**  A group whose membership changed has its weight
  re-summed over its members in arrival order (the regroup's left-to-right
  ``+=``).  It is never patched with ``+=``/``-=``, which would drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.flows import NetFlow

__all__ = ["FlowGroup", "FlowTable"]


class FlowGroup:
    """Live flows sharing ``(src index, dst index, tag)``: one solver
    variable of the summed member weight."""

    __slots__ = ("key", "members", "weight")

    def __init__(self, key: tuple[int, int, str], weight: float) -> None:
        self.key = key
        #: Live members in arrival order (a dict used as an ordered set).
        self.members: dict["NetFlow", None] = {}
        self.weight = weight

    def head_seq(self) -> int:
        """Arrival number of the oldest live member."""
        return next(iter(self.members))._seq


class FlowTable:
    """The live :class:`~repro.netsim.flows.NetFlow` objects of one fabric,
    in arrival order, with their coalescing groups.

    :meth:`solver_inputs` returns the coalesced max-min problem and
    :meth:`assign_rates` spreads its solution back over the members.
    Membership changes are recorded as they happen and folded into the
    solver arrays on the next :meth:`solver_inputs` call, so a burst of
    same-instant admissions costs one fold.
    """

    def __init__(self) -> None:
        self._flows: dict["NetFlow", None] = {}
        self._groups: dict[tuple[int, int, str], FlowGroup] = {}
        #: Groups in solver order (by head arrival number).
        self._order: list[FlowGroup] = []
        self._seq = 0
        # Changes not yet folded into the solver arrays.
        self._dropped = False  # a group died: filter it out of the order
        self._moved = False  # a head left: re-sort the order
        self._grown = False  # a group was appended
        self._reweigh: dict[FlowGroup, None] = {}
        self._weights = np.zeros(0)
        self._srcs = np.zeros(0, dtype=np.intp)
        self._dsts = np.zeros(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator["NetFlow"]:
        return iter(self._flows)

    def __contains__(self, flow: object) -> bool:
        return flow in self._flows

    def add(self, flow: "NetFlow") -> None:
        """Admit ``flow`` as the youngest live flow."""
        flow._seq = self._seq
        self._seq += 1
        self._flows[flow] = None
        key = (flow.src.index, flow.dst.index, flow.tag)
        group = self._groups.get(key)
        if group is None:
            group = FlowGroup(key, flow.weight)
            self._groups[key] = group
            self._order.append(group)
            self._grown = True
        else:
            self._reweigh[group] = None
        group.members[flow] = None
        flow._group = group

    def remove(self, flow: "NetFlow") -> None:
        """Drop a live ``flow`` in O(1)."""
        del self._flows[flow]
        group = flow._group
        assert group is not None
        members = group.members
        was_head = next(iter(members)) is flow
        del members[flow]
        if not members:
            del self._groups[group.key]
            self._reweigh.pop(group, None)
            self._dropped = True
            return
        if was_head:
            self._moved = True
        self._reweigh[group] = None

    def solver_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(weights, srcs, dsts)``: one entry per group, groups in order
        of first appearance over the live flows in arrival order."""
        self._fold()
        return self._weights, self._srcs, self._dsts

    def assign_rates(self, group_rates: np.ndarray) -> None:
        """Give every live flow its weight's share of its group's solved
        rate.  A lone member's share is ``weight / weight``, exactly 1.0,
        so it gets the group rate bit for bit."""
        for group, rate in zip(self._order, group_rates.tolist()):
            total = group.weight
            for fl in group.members:
                fl.rate = rate * (fl.weight / total)

    def _fold(self) -> None:
        reordered = self._dropped or self._moved or self._grown
        if not reordered and not self._reweigh:
            return
        for group in self._reweigh:
            total = 0.0
            for fl in group.members:
                total += fl.weight
            group.weight = total
        self._reweigh.clear()
        order = self._order
        if self._dropped:
            order = self._order = [g for g in order if g.members]
        if self._moved:
            order.sort(key=FlowGroup.head_seq)
        if reordered:
            self._srcs = np.array([g.key[0] for g in order], dtype=np.intp)
            self._dsts = np.array([g.key[1] for g in order], dtype=np.intp)
        self._weights = np.array([g.weight for g in order], dtype=np.float64)
        self._dropped = self._moved = self._grown = False
