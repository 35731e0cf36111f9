"""Domain types for categorical time series and variable-length context trees.

Conventions used throughout the package:

* States are integers ``0 .. p-1``.  In the binary case ``p = 2`` the modeled
  transition is into state 1; state 0 is always the baseline category.
* A context is a tuple of states in reverse time: element 0 is the most
  recent state, element 1 the one before that, and so on.  Tree paths,
  printed labels, and the JSON model format all use this order, so the
  label ``"0110"`` means "last state 0, then 1, then 1, then 0 going back".
* A context tree is a prefix-closed map from contexts to optional parameter
  blocks.  Nodes without children are leaves and only leaves carry
  parameters.  Branches may stop at different depths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ChildrenNotLeaves,
    DataError,
    HistoryTooShort,
    MalformedModel,
    RootHasNoSiblings,
)

Context = tuple[int, ...]

ROOT: Context = ()


def context_label(u: Context) -> str:
    """Human-readable label, most recent state first; the root is ``<root>``."""
    return ",".join(str(s) for s in u) if u else "<root>"


def _as_context(u: Iterable[int]) -> Context:
    return tuple(int(s) for s in u)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int; ``DataError`` unless it is a Python or numpy
    integer (a bool is not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DataError(f"{name} must be >= {least}, got {value}")
    return int(value)


_AS_IS = frozenset({str, int, bool, type(None)})  # what JSON writes unchanged


def _json_ready(value):
    """``value`` under the JSON rule of every report record: tuples and lists
    become lists, dicts keep their keys, and a float (numpy's float64 too)
    becomes a Python float, or None when it is NaN, at any depth."""
    if type(value) in _AS_IS:  # the common case, tested first for speed
        return value
    if isinstance(value, float):
        return None if value != value else float(value)
    if isinstance(value, (tuple, list)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


class _Record:
    """Base of the flat report records (dataclasses, none with a ClassVar):
    :meth:`to_dict` holds every field, in declaration order, as :func:`_json_ready`."""

    def to_dict(self) -> dict:
        return {name: _json_ready(getattr(self, name)) for name in self.__dataclass_fields__}


def _to_json(report, indent: int | None = 2) -> str:
    """``report.to_dict()`` as JSON text: the ``to_json`` of each report."""
    return json.dumps(report.to_dict(), indent=indent)


@dataclass(eq=False)
class ParamBlock:
    """Regression coefficients attached to one context.

    ``alpha[j]`` and ``beta[j]`` belong to the transition into target state
    ``j + 1`` (state 0 is the baseline and carries no parameters).  ``beta``
    has shape ``(p - 1, h, d)``: row ``t`` of each target's matrix multiplies
    the covariate vector observed ``t + 1`` steps before the transition.

    ``h`` is the number of stored lag rows.  Trailing rows that are zero for
    every target are trimmed on construction, so ``h`` always equals the
    depth of the last active lag (0 when no covariate enters).
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.array(self.alpha, dtype=float, ndmin=1)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.ndim != 1 or alpha.size < 1:
            raise MalformedModel("alpha must be a non-empty vector")
        if beta.ndim != 3:
            raise MalformedModel("beta must have shape (p - 1, h, d)")
        if beta.shape[0] != alpha.shape[0]:
            raise MalformedModel(
                f"beta has {beta.shape[0]} target rows, alpha has {alpha.shape[0]}"
            )
        # the checks read a handful of entries, so they run on Python floats;
        # lag t of every target is lags[t * width : (t + 1) * width]
        lags = beta.transpose(1, 0, 2).ravel().tolist()
        if not (all(map(math.isfinite, alpha.tolist())) and all(map(math.isfinite, lags))):
            raise MalformedModel("coefficients must be finite")
        width, h = beta.shape[0] * beta.shape[2], beta.shape[1]
        while h > 0 and not any(lags[(h - 1) * width : h * width]):  # -0.0 is zero
            h -= 1
        beta = beta[:, :h, :].copy()
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def binary(cls, alpha: float, beta_rows: Sequence[Sequence[float]] | Sequence[float], d: int = 1) -> "ParamBlock":
        """Convenience constructor for ``p = 2``.

        ``beta_rows`` is one coefficient per lag when ``d = 1``, or one
        length-``d`` row per lag otherwise.
        """
        rows = np.asarray(beta_rows, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1) if d == 1 else rows.reshape(-1, d)
        return cls(alpha=np.array([alpha], dtype=float), beta=rows[np.newaxis, :, :])

    @property
    def n_targets(self) -> int:
        return int(self.alpha.shape[0])

    @property
    def p(self) -> int:
        return self.n_targets + 1

    @property
    def h(self) -> int:
        """Number of active covariate lags."""
        return int(self.beta.shape[1])

    @property
    def d(self) -> int:
        return int(self.beta.shape[2])

    def truncated(self, h: int) -> "ParamBlock":
        """Copy keeping only the first ``h`` lag rows."""
        if not 0 <= h <= self.h:
            raise ValueError(f"h={h} outside [0, {self.h}]")
        return ParamBlock(alpha=self.alpha, beta=self.beta[:, :h, :])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamBlock):
            return NotImplemented
        return (
            self.beta.shape == other.beta.shape
            and np.array_equal(self.alpha, other.alpha)
            and np.array_equal(self.beta, other.beta)
        )


def _with_ancestors(leaves: Mapping[Context, ParamBlock | None]) -> dict[Context, ParamBlock | None]:
    """``leaves`` plus every proper prefix of their contexts that is not
    among them, as an internal node (None): a prefix-closed node map."""
    nodes: dict[Context, ParamBlock | None] = {}
    for u, block in leaves.items():
        nodes[u] = block
        for k in range(len(u)):
            nodes.setdefault(u[:k], None)
    return nodes


@dataclass(eq=False)
class ContextTree:
    """Prefix-closed context map over states ``0 .. p-1``.

    ``nodes`` maps each context to its ParamBlock (leaves) or ``None``
    (internal nodes; also allowed for a leaf that has not been fitted yet).
    """

    p: int
    d: int
    nodes: dict[Context, ParamBlock | None] = field(repr=False)

    def __post_init__(self) -> None:
        if self.p < 2:
            raise MalformedModel(f"need at least two states, got p={self.p}")
        if self.d < 0:
            raise MalformedModel(f"covariate dimension must be >= 0, got {self.d}")
        nodes = {_as_context(u): b for u, b in self.nodes.items()}
        if ROOT not in nodes:
            raise MalformedModel("tree must contain the root context")
        internal = {u[:-1] for u in nodes if u}
        for u in nodes:
            if u and u[:-1] not in nodes:
                raise MalformedModel(f"missing parent of {context_label(u)}")
            if any(not 0 <= s < self.p for s in u):
                raise MalformedModel(f"state outside 0..{self.p - 1} in {context_label(u)}")
        for u, block in nodes.items():
            if block is None:
                continue
            if u in internal:
                raise MalformedModel(f"internal node {context_label(u)} carries parameters")
            if block.n_targets != self.p - 1:
                raise MalformedModel(
                    f"leaf {context_label(u)}: block for {block.p} states in a {self.p}-state tree"
                )
            if block.d != self.d and block.h > 0:
                raise MalformedModel(
                    f"leaf {context_label(u)}: covariate dimension {block.d} != {self.d}"
                )
            if block.h > len(u):
                raise MalformedModel(
                    f"leaf {context_label(u)}: {block.h} lags exceed context length {len(u)}"
                )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_internal", internal)

    # -- structure queries ------------------------------------------------

    def is_leaf(self, u: Context) -> bool:
        return u in self.nodes and u not in self._internal

    def children(self, u: Context) -> list[Context]:
        return [u + (w,) for w in range(self.p) if u + (w,) in self.nodes]

    def leaves(self) -> list[Context]:
        """All leaf contexts in lexicographic order."""
        return sorted(u for u in self.nodes if u not in self._internal)

    @property
    def order(self) -> int:
        """Depth of the deepest leaf (0 for a root-only tree)."""
        return max(len(u) for u in self.nodes)

    @property
    def covariate_order(self) -> int:
        """Largest number of active lags over the fitted leaves."""
        return max((b.h for b in self.nodes.values() if b is not None), default=0)

    def block(self, u: Context) -> ParamBlock:
        b = self.nodes.get(_as_context(u))
        if b is None:
            raise MalformedModel(f"no parameters at {context_label(u)}")
        return b

    def lookup(self, history: Sequence[int]) -> Context:
        """Leaf reached by walking ``history`` (most recent state first).

        Raises HistoryTooShort when the walk needs more states than given,
        and MalformedModel when a required branch is absent.
        """
        node: Context = ROOT
        while node in self._internal:
            depth = len(node)
            if depth >= len(history):
                raise HistoryTooShort(
                    f"history of length {len(history)} cannot resolve below {context_label(node)}"
                )
            child = node + (int(history[depth]),)
            if child not in self.nodes:
                raise MalformedModel(
                    f"history does not resolve: no branch {context_label(child)}"
                )
            node = child
        return node

    def siblings(self, u: Context) -> list[Context]:
        """Other present children of ``u``'s parent, sorted."""
        u = _as_context(u)
        if u == ROOT:
            raise RootHasNoSiblings("the root context has no siblings")
        if u not in self.nodes:
            raise MalformedModel(f"unknown context {context_label(u)}")
        parent = u[:-1]
        return [c for c in self.children(parent) if c != u]

    # -- structural edits (return new trees) ------------------------------

    def merge_leaves(self, parent: Context) -> "ContextTree":
        """Collapse all children of ``parent`` into it; the merged leaf has
        no parameters until the caller fits one."""
        parent = _as_context(parent)
        if parent not in self.nodes:
            raise MalformedModel(f"unknown context {context_label(parent)}")
        kids = self.children(parent)
        if not kids:
            raise ChildrenNotLeaves(f"{context_label(parent)} has no children to merge")
        bad = [c for c in kids if not self.is_leaf(c)]
        if bad:
            raise ChildrenNotLeaves(
                f"cannot merge below {context_label(parent)}: "
                f"{context_label(bad[0])} is not a leaf"
            )
        nodes = {u: b for u, b in self.nodes.items() if u not in set(kids)}
        nodes[parent] = None
        return ContextTree(p=self.p, d=self.d, nodes=nodes)

    def with_block(self, u: Context, block: ParamBlock | None) -> "ContextTree":
        """Copy of the tree with ``block`` installed at leaf ``u``."""
        u = _as_context(u)
        if u not in self.nodes:
            raise MalformedModel(f"unknown context {context_label(u)}")
        if not self.is_leaf(u):
            raise MalformedModel(f"{context_label(u)} is internal; only leaves carry parameters")
        nodes = dict(self.nodes)
        nodes[u] = block
        return ContextTree(p=self.p, d=self.d, nodes=nodes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The model as plain lists and floats, leaves sorted lexicographically:
        what :meth:`serialize` writes and a fit report embeds."""
        leaves = []
        for u in self.leaves():
            block = self.nodes[u]
            if block is None:
                raise MalformedModel(f"leaf {context_label(u)} has no parameters to serialize")
            leaves.append({"context": list(u), "alpha": block.alpha.tolist(), "beta": block.beta.tolist()})
        return {"p": self.p, "d": self.d, "leaves": leaves}

    def serialize(self) -> str:
        """Canonical JSON of :meth:`to_dict`, compact separators.

        Serializing equal trees yields byte-identical text.
        """
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def parse(cls, text: str) -> "ContextTree":
        """Inverse of :meth:`serialize`; raises MalformedModel on any defect."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedModel(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedModel("model file must be a JSON object")
        try:
            p = int(payload["p"])
            d = int(payload["d"])
            raw_leaves = payload["leaves"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedModel(f"model file missing or invalid field: {exc}") from exc
        if not isinstance(raw_leaves, list) or not raw_leaves:
            raise MalformedModel("model file must list at least one leaf")
        leaves: dict[Context, ParamBlock] = {}
        for i, entry in enumerate(raw_leaves):
            try:
                context = entry["context"]
                alpha = np.asarray(entry["alpha"], dtype=float)
                beta = np.asarray(entry["beta"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedModel(f"invalid leaf entry: {exc}") from exc
            # a string, a bool or a fraction would iterate or cast into some context
            if not isinstance(context, list) or any(type(s) is not int for s in context):
                raise MalformedModel(
                    f"leaf entry {i}: context must be a list of integers, got {json.dumps(context)}"
                )
            u = tuple(context)
            if beta.ndim == 2 and beta.shape[1] == 0:
                beta = beta.reshape(beta.shape[0], 0, d)
            if beta.ndim != 3:
                raise MalformedModel(f"leaf {context_label(u)}: beta must be a 3-level array")
            if beta.shape[2] != d and beta.shape[1] > 0:
                raise MalformedModel(
                    f"leaf {context_label(u)}: beta rows have width {beta.shape[2]}, expected {d}"
                )
            if u in leaves:
                raise MalformedModel(f"duplicate leaf {context_label(u)}")
            leaves[u] = ParamBlock(alpha=alpha, beta=beta)
        # a leaf that is also another's ancestor is an internal node with parameters
        return cls(p=p, d=d, nodes=_with_ancestors(leaves))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextTree):
            return NotImplemented
        if self.p != other.p or self.d != other.d:
            return False
        if set(self.nodes) != set(other.nodes):
            return False
        return all(self.nodes[u] == other.nodes[u] for u in self.nodes)

    def same_structure(self, other: "ContextTree") -> bool:
        """Equality of node sets, ignoring parameter values."""
        return self.p == other.p and set(self.nodes) == set(other.nodes)


@dataclass(eq=False)
class Dataset:
    """An observed state sequence with time-aligned covariate rows.

    ``states[i]`` and ``covariates[i]`` share a time index; the model always
    applies covariates with a lag, so the transition into ``states[i]`` is
    driven by ``covariates[i - 1], covariates[i - 2], ...``.
    """

    states: np.ndarray
    covariates: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states)
        if states.ndim != 1 or states.size == 0:
            raise DataError("states must be a non-empty vector")
        if not np.issubdtype(states.dtype, np.integer):
            values = np.asarray(states, dtype=float)
            # NaN, inf and values past int64 fail the range test before any cast
            if not (np.all(np.abs(values) < 2.0**63) and np.array_equal(values, np.trunc(values))):
                raise DataError("states must be integers")
            states = values
        states = states.astype(np.int64)
        if np.any(states < 0):
            raise DataError("states must be non-negative")
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(-1, 1)
        if cov.ndim != 2:
            raise DataError("covariates must be a 2-d array")
        if cov.shape[0] != states.shape[0]:
            raise DataError(
                f"length mismatch: {states.shape[0]} states, {cov.shape[0]} covariate rows"
            )
        if cov.size and not np.all(np.isfinite(cov)):
            raise DataError("covariates must be finite")
        states = np.ascontiguousarray(states)
        cov = np.ascontiguousarray(cov)
        states.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "covariates", cov)

    @property
    def n(self) -> int:
        return int(self.states.shape[0])

    @property
    def d(self) -> int:
        return int(self.covariates.shape[1])


class HistoryIndex:
    """Every context's time points and the lagged covariates of one dataset.

    Level ``k`` gives each time point ``t`` in ``[k, n]`` a code for its
    depth-``k`` history ``states[t-1], ..., states[t-k]``: the dense rank of
    the pair (``states[t-k]``, depth ``k - 1`` code), so codes stay below
    ``n + 1`` however deep or wide the tree.  Its positions are sorted by
    code and, within one code, by time, so a context's time points are one
    ascending slice.  Levels and the lagged matrix are built on first use,
    as deep as a caller asks.
    """

    def __init__(self, data: Dataset):
        self.data = data
        n = data.n
        self._alphabet, self._symbols = np.unique(data.states, return_inverse=True)
        self._alphabet.setflags(write=False)
        # per level: positions by (code, t), each code's key, its slice offsets
        self._pos = [np.arange(n + 1, dtype=np.int32)]
        self._keys = [np.zeros(1, dtype=np.int64)]
        self._off = [np.array([0, n + 1])]
        self._code_at = np.zeros(n + 1, dtype=np.int32)  # deepest level's code by t
        self._codes: dict[Context, int | None] = {ROOT: 0}
        self._lagged: np.ndarray | None = None

    @property
    def alphabet(self) -> np.ndarray:
        """The distinct state labels of the data, ascending; read-only."""
        return self._alphabet

    def _level(self, k: int) -> int:
        """Build the levels up to ``k``; returns ``k``."""
        n = self.data.n
        while len(self._pos) <= k:
            depth = len(self._pos)
            keys = self._symbols[: max(n + 1 - depth, 0)] * self._keys[-1].size
            keys += self._code_at[depth:]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            head = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            code_at = np.zeros(n + 1, dtype=np.int32)
            code_at[depth + order] = np.cumsum(head) - 1
            self._code_at = code_at
            self._pos.append((depth + order).astype(np.int32))
            self._keys.append(keys[starts])
            self._off.append(np.append(starts, keys.size))
        return k

    def _symbol(self, state: int) -> int:
        """Position of ``state`` in the alphabet; -1 when the data lacks it."""
        i = int(np.searchsorted(self._alphabet, state))
        return i if i < self._alphabet.size and self._alphabet[i] == state else -1

    def _code(self, u: Context) -> int | None:
        """Code of context ``u`` at level ``len(u)``; None when no time point has it.

        The memo holds each prefix of what it holds, up to the first prefix
        no time point has, so the walk starts at the longest one memoized.
        """
        k = 0
        while k < len(u) and u[: k + 1] in self._codes:
            k += 1
        code = self._codes[u[:k]]
        while code is not None and k < len(u):
            keys = self._keys[self._level(k + 1)]
            key = self._symbol(u[k]) * self._keys[k].size + code  # < 0 for a lacking state
            i = int(np.searchsorted(keys, key))
            code = i if i < keys.size and keys[i] == key else None
            k += 1
            self._codes[u[:k]] = code
        return code

    def rows(self, u: Context, start: int, stop: int | None = None) -> np.ndarray:
        """Time points ``t`` in ``[start, stop)`` (``stop`` at most ``n + 1``,
        default ``n``; ``start >= len(u)``) with ``states[t-1-j] == u[j]`` for
        all j, ascending."""
        stop = max(start, self.data.n if stop is None else stop)
        code = self._code(u)
        if code is None:
            return np.arange(0)
        k = len(u)
        block = self._pos[k][self._off[k][code] : self._off[k][code + 1]]
        lo, hi = np.searchsorted(block, (start, stop))
        return block[lo:hi].astype(np.intp)

    def child_counts(self, parents: Sequence[Context], p: int) -> np.ndarray:
        """Occurrences of each child ``u + (w,)``, ``w < p``, of ``parents``
        (all of one depth), as a ``(len(parents), p)`` array; an occurrence is
        a time point in ``[len(u) + 1, n]`` with that history."""
        k = self._level(len(parents[0]) + 1)
        if self._keys[k].size == 0:  # no time point reaches depth k
            return np.zeros((len(parents), p), dtype=np.int64)
        codes = np.array([-1 if c is None else c for c in map(self._code, parents)])
        syms = np.array([self._symbol(w) for w in range(p)])
        keys = syms * self._keys[k - 1].size + codes[:, np.newaxis]
        at = np.minimum(np.searchsorted(self._keys[k], keys), self._keys[k].size - 1)
        hit = (codes[:, np.newaxis] >= 0) & (syms >= 0) & (self._keys[k][at] == keys)
        return np.where(hit, np.diff(self._off[k])[at], 0)

    def lagged(self, h: int) -> np.ndarray:
        """The matrix ``[1, x[t-1], ..., x[t-h]]`` over ``t < n``, zero before
        the start, with at least ``1 + h*d`` columns."""
        n, d = self.data.n, self.data.d
        if self._lagged is None or self._lagged.shape[1] < 1 + h * d:
            L = np.zeros((n, 1 + h * d))
            L[:, 0] = 1.0
            for lag in range(1, h + 1):
                L[lag:, 1 + (lag - 1) * d : 1 + lag * d] = self.data.covariates[: max(n - lag, 0)]
            self._lagged = L
        return self._lagged


def count_occurrences(data: Dataset, v: Context | Sequence[int]) -> int:
    """Number of windows of the state sequence equal to ``v``.

    ``v`` is read in reverse time (most recent first), matching contexts; the
    empty context matches every position, giving ``n``.
    """
    v = _as_context(v)
    if not v:
        return data.n
    # the window ending at position i is the history read at t = i + 1
    return int(HistoryIndex(data).rows(v, len(v), data.n + 1).size)
