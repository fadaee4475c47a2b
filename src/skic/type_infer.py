"""Energy-based probabilistic type inference over a four-tag type space.

Each untyped leaf occurrence of a term (variables the context does not
type, plus integer literals, which may be Int or Real) becomes an
inference variable.  Usage sites emit weighted factors; an assignment's
energy is the weighted count of violated factors, and the posterior is
the softmax of negated energies over the full enumerated candidate set.

Factor rules and weights:
  - arithmetic operands agree on a numeric tag   (weight 1.0 per pair)
  - equality operands agree on a tag             (weight 1.0)
  - conditional condition is Bool                (weight 2.0)
  - occurrences bound to the same name agree     (weight 4.0)

Names typed by the context environment are fixed: they produce no
inference variable and their tag is baked into any factor they touch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import lambda_ir
from .lambda_ir import App, BoolLit, IntLit, Lam, Prim, Term, Var, spine

ARITH_FACTOR_WEIGHT = 1.0
EQ_FACTOR_WEIGHT = 1.0
COND_FACTOR_WEIGHT = 2.0
BINDING_FACTOR_WEIGHT = 4.0

MAX_ENUM_VARIABLES = 8


class TypeInferError(Exception):
    pass


class TooManyVariablesError(TypeInferError):
    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} inference variables exceed the enumeration guard ({limit})")
        self.count = count
        self.limit = limit


class MissingVariableError(TypeInferError):
    def __init__(self, name: str):
        super().__init__(f"assignment does not cover variable {name!r}")
        self.name = name


class EmptyPosteriorError(TypeInferError):
    pass


class TypeTag(Enum):
    """Closed type space; declaration order is the tie-breaking order."""

    INT = 0
    REAL = 1
    BOOL = 2
    FUNC = 3


NUMERIC_TAGS = (TypeTag.INT, TypeTag.REAL)


@dataclass
class ContextEnv:
    """Known name types."""

    bindings: dict[str, TypeTag] = field(default_factory=dict)


@dataclass(frozen=True)
class Factor:
    kind: str  # numeric | agree | bool_cond | binding
    clique: tuple[str, ...]
    weight: float
    fixed: tuple[TypeTag, ...] = ()

    def violated(self, assignment: dict[str, TypeTag]) -> bool:
        tags = []
        for v in self.clique:
            if v not in assignment:
                raise MissingVariableError(v)
            tags.append(assignment[v])
        tags.extend(self.fixed)
        if self.kind == "bool_cond":
            return tags[0] is not TypeTag.BOOL
        same = all(t is tags[0] for t in tags)
        if self.kind == "numeric":
            return not (same and tags[0] in NUMERIC_TAGS)
        return not same  # agree / binding


@dataclass(frozen=True)
class ConstraintSet:
    factors: tuple[Factor, ...]

    def __post_init__(self):
        for f in self.factors:
            if not f.clique:
                raise ValueError("factor clique must be nonempty")
            if f.weight <= 0:
                raise ValueError("factor weight must be positive")


@dataclass(frozen=True)
class PosteriorEntry:
    assignment: dict[str, TypeTag]
    energy: float
    probability: float


@dataclass(frozen=True)
class TypePosterior:
    variables: tuple[str, ...]
    support: tuple[PosteriorEntry, ...]


# --- constraint extraction ----------------------------------------------


@dataclass(frozen=True)
class _Slot:
    """Resolution of one leaf occurrence: fixed tag or inference variable."""

    var: Optional[str]  # inference variable name, or None when fixed
    tag: Optional[TypeTag]  # fixed tag, or None when inferred


class _Extractor:
    def __init__(self, env: ContextEnv):
        self.env = env
        self.leaf_slots: list[_Slot] = []
        self.variables: list[str] = []
        self.groups: dict[tuple, list[str]] = {}
        self.factors: list[Factor] = []
        self.lam_counter = 0

    def walk(self, t: Term, binders: tuple[tuple[str, int], ...]) -> None:
        match t:
            case Lam(param, body):
                self.lam_counter += 1
                self.walk(body, ((param, self.lam_counter),) + binders)
            case App():
                head, args = spine(t)
                self._leaf_or_walk(head, binders)
                slots_before = [len(self.leaf_slots)]
                for a in args:
                    self._leaf_or_walk(a, binders)
                    slots_before.append(len(self.leaf_slots))
                if isinstance(head, Prim):
                    operand_slots = [
                        self.leaf_slots[slots_before[i]] if self._is_leaf(args[i]) else None
                        for i in range(len(args))
                    ]
                    self._emit_site(head.op, args, operand_slots)
            case _:
                self._leaf_or_walk(t, binders)

    def _is_leaf(self, t: Term) -> bool:
        return isinstance(t, (Var, IntLit, BoolLit, Prim))

    def _leaf_or_walk(self, t: Term, binders: tuple[tuple[str, int], ...]) -> None:
        if not self._is_leaf(t):
            self.walk(t, binders)
            return
        idx = len(self.leaf_slots)
        match t:
            case Var(name):
                bound = next((b for b in binders if b[0] == name), None)
                if bound is not None:
                    self._add_variable(name, idx, group=("lam", name, bound[1]))
                elif name in self.env.bindings:
                    self.leaf_slots.append(_Slot(var=None, tag=self.env.bindings[name]))
                else:
                    self._add_variable(name, idx, group=("free", name))
            case IntLit(v):
                self._add_variable(str(v), idx, group=None)
            case BoolLit(_):
                self.leaf_slots.append(_Slot(var=None, tag=TypeTag.BOOL))
            case Prim(_):
                self.leaf_slots.append(_Slot(var=None, tag=TypeTag.FUNC))

    def _add_variable(self, display: str, idx: int, group: Optional[tuple]) -> None:
        name = f"{display}@{idx}"
        self.variables.append(name)
        self.leaf_slots.append(_Slot(var=name, tag=None))
        if group is not None:
            self.groups.setdefault(group, []).append(name)

    def _emit_site(self, op: str, args: list[Term], operand_slots: list[Optional[_Slot]]) -> None:
        if op in ("add", "sub", "mul") and len(args) >= 2:
            self._agreement_factor("numeric", operand_slots[:2], ARITH_FACTOR_WEIGHT)
        elif op == "eq" and len(args) >= 2:
            self._agreement_factor("agree", operand_slots[:2], EQ_FACTOR_WEIGHT)
        elif op == "if" and len(args) >= 3:
            cond = operand_slots[0]
            if cond is not None and cond.var is not None:
                self.factors.append(Factor("bool_cond", (cond.var,), COND_FACTOR_WEIGHT))

    def _agreement_factor(self, kind: str, slots: list[Optional[_Slot]], weight: float) -> None:
        present = [s for s in slots if s is not None]
        clique = tuple(s.var for s in present if s.var is not None)
        fixed = tuple(s.tag for s in present if s.var is None)
        if not clique:
            return
        if kind == "agree" and len(clique) + len(fixed) < 2:
            return  # single-operand agreement is vacuous
        self.factors.append(Factor(kind, clique, weight, fixed))

    def finish(self) -> None:
        for key in self.groups:
            members = self.groups[key]
            for a, b in zip(members, members[1:]):
                self.factors.append(Factor("binding", (a, b), BINDING_FACTOR_WEIGHT))


def build_constraints(t: Term, env: Optional[ContextEnv] = None) -> tuple[list[str], ConstraintSet]:
    """Extract inference variables and factors from a term.

    Variables are named `<display>@<leaf-index>` in left-to-right leaf
    order.
    """
    ex = _Extractor(env if env is not None else ContextEnv())
    ex.walk(t, ())
    ex.finish()
    return ex.variables, ConstraintSet(factors=tuple(ex.factors))


# --- energy and posterior -------------------------------------------------


def energy(assignment: dict[str, TypeTag], cs: ConstraintSet) -> float:
    """Weighted count of violated factors; 0 iff every factor holds."""
    return sum(f.weight for f in cs.factors if f.violated(assignment))


def posterior_from_energies(
    assignments: list[dict[str, TypeTag]], energies: list[float], variables: tuple[str, ...]
) -> TypePosterior:
    """Softmax of negated energies, stabilized by min-energy subtraction."""
    if not assignments:
        raise EmptyPosteriorError("no candidate assignments")
    e_min = min(energies)
    weights = [math.exp(-(e - e_min)) for e in energies]
    z = sum(weights)
    support = tuple(
        PosteriorEntry(assignment=a, energy=e, probability=w / z)
        for a, e, w in zip(assignments, energies, weights)
    )
    return TypePosterior(variables=variables, support=support)


def posterior(
    cs: ConstraintSet, variables: list[str], max_variables: int = MAX_ENUM_VARIABLES
) -> TypePosterior:
    """Exact posterior over all |tags|^n assignments (guarded enumeration)."""
    n = len(variables)
    if n > max_variables:
        raise TooManyVariablesError(n, max_variables)
    assignments = [
        dict(zip(variables, combo)) for combo in itertools.product(TypeTag, repeat=n)
    ]
    energies = [energy(a, cs) for a in assignments]
    return posterior_from_energies(assignments, energies, tuple(variables))


def map_assignment(p: TypePosterior) -> dict[str, TypeTag]:
    """Highest-probability assignment; ties break lexicographically."""
    if not p.support:
        raise EmptyPosteriorError("empty posterior support")

    def key(entry: PosteriorEntry):
        lex = tuple(entry.assignment[v].value for v in p.variables)
        return (-entry.probability, lex)

    return min(p.support, key=key).assignment


# --- operator specialization ----------------------------------------------


def specialize_operators(
    t: Term, assignment: dict[str, TypeTag], env: Optional[ContextEnv] = None
) -> Term:
    """Rewrite #add to #addZ / #addR where both operands resolve Int / Real.

    Operand tags come from the assignment for inferred leaves, fixed
    slots otherwise; compound operands derive a tag structurally
    (arithmetic results, #eq results, same-tag conditional branches).
    Anything unresolved leaves the operator unchanged.
    """
    ex = _Extractor(env if env is not None else ContextEnv())
    ex.walk(t, ())
    slots = ex.leaf_slots
    counter = itertools.count()

    def resolve(idx: int) -> Optional[TypeTag]:
        slot = slots[idx]
        if slot.var is None:
            return slot.tag
        return assignment.get(slot.var)

    def go(node: Term) -> tuple[Term, Optional[TypeTag]]:
        match node:
            case Lam(param, body):
                new_body, _ = go(body)
                return Lam(param, new_body), TypeTag.FUNC
            case App():
                head, args = spine(node)
                if isinstance(head, (Var, IntLit, BoolLit, Prim)):
                    next(counter)
                    new_head: Term = head
                else:
                    new_head, _ = go(head)
                results = [go(a) for a in args]
                new_args = [r[0] for r in results]
                tags = [r[1] for r in results]
                derived: Optional[TypeTag] = None
                if isinstance(head, Prim):
                    if head.op in lambda_ir.ARITH_OPS and len(args) == 2:
                        if tags[0] is TypeTag.INT and tags[1] is TypeTag.INT:
                            derived = TypeTag.INT
                        elif tags[0] is TypeTag.REAL and tags[1] is TypeTag.REAL:
                            derived = TypeTag.REAL
                        if head.op == "add" and derived is TypeTag.INT:
                            new_head = Prim("addZ")
                        elif head.op == "add" and derived is TypeTag.REAL:
                            new_head = Prim("addR")
                    elif head.op == "eq" and len(args) == 2:
                        derived = TypeTag.BOOL
                    elif head.op == "if" and len(args) == 3:
                        derived = tags[1] if tags[1] is tags[2] else None
                return lambda_ir.apply_spine(new_head, *new_args), derived
            case IntLit() | Var():
                return node, resolve(next(counter))
            case BoolLit():
                next(counter)
                return node, TypeTag.BOOL
            case Prim():
                next(counter)
                return node, TypeTag.FUNC
        raise TypeError(f"not a Term: {node!r}")

    rewritten, _ = go(t)
    return rewritten
