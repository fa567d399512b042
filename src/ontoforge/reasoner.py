"""Polynomial classification for the EL fragment with disjointness.

The fragment covered: named classes, intersections, and existential
restrictions, in subsumptions, equivalences, and pairwise disjointness.
owl:Thing and owl:Nothing are named classes (`model.THING`, `model.NOTHING`),
so their atoms, `TOP` and `BOT`, are their IRIs like any other. A union
at the top level of a subsumption's left-hand side is decomposed into one
subsumption per disjunct. Everything else (universal restrictions,
complements, remaining unions, and the property axioms) is outside the
fragment: those axioms are skipped and reported, never silently dropped.

Classification runs in two stages:

1. `normalize` rewrites axioms into the four normal forms

       A ⊑ B      A1 ⊓ A2 ⊑ B      A ⊑ ∃r.B      ∃r.A ⊑ B

   where every letter is an atom: the IRI of a named class, or a fresh
   auxiliary name `_aux1`, `_aux2`, ... handed out in axiom order, so the
   output is deterministic for a given input sequence. Within one call, a
   complex expression gets one name per side however many axioms hold it.
   One scan reads each class expression once, collecting its classes and
   naming what falls outside the fragment; an axiom is skipped once, under
   the first such construct in text order, the left side before the right.

2. `Saturation` computes, for every atom C, the set S(C) of entailed atomic
   subsumers and the role edge relation R(r), as the least fixpoint of

       R1: D ∈ S(C), D ⊑ B             then B ∈ S(C)
       R2: D1, D2 ∈ S(C), D1 ⊓ D2 ⊑ B  then B ∈ S(C)
       R3: D ∈ S(C), D ⊑ ∃r.B          then (C, B) ∈ R(r)
       R4: (C, D) ∈ R(r), E ∈ S(D), ∃r.E ⊑ B   then B ∈ S(C)

   starting from S(C) = {C, owl:Thing}. It runs context by context, as ELK
   does: each atom C keeps a worklist of the subsumers added to S(C) whose
   rules have not run yet. A conclusion lands straight in the context it
   belongs to: R1, R2 and R4 over a new edge of C add to C's own list, and
   R4 over an edge into C to its source's. Each edge (C, D) ∈ R(r) is
   stored once, as (r, C) under its target D, where R4 looks for it; a new
   edge meets S(D) with the set of every E of some
   ∃r.E ⊑ B. Propagating owl:Nothing back over an edge is R4 too: every
   role r of some A ⊑ ∃r.B gets ∃r.owl:Nothing ⊑ owl:Nothing. The fixpoint
   is unique, so the result does not depend on axiom order. Every rule only
   adds, so `extend` with more axioms carries on from the fixpoint it has;
   it revisits old contexts only when a new axiom's trigger is an old atom,
   so axioms about new classes alone touch no old context. A trail of the
   additions lets `undo` take an extension back exactly.

A `Classifier` runs both stages on a base that probe blocks extend and undo;
`classify(axioms)` is `Classifier(axioms).taxonomy()`. A `Taxonomy` is a view
of the live S on the named classes, read on demand. owl:Thing and
owl:Nothing are contexts of every saturation but classes of no taxonomy: a
declared owl:Nothing is not an unsatisfiable class, and the queries accept
both whether or not the axioms mention them. S is closed (D ∈ S(C) gives
S(D) ⊆ S(C)), so `direct_superclasses` tells a strict subsumer from an
equivalent one by the size of its S. `Taxonomy.skipped` lists skipped
axioms with their reasons, and the `classify` and `test` commands sum them
up in one warning on stderr.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .errors import OntoforgeError
from .model import (
    And,
    AnnotationAssertion,
    Axiom,
    ClassExpression,
    Declaration,
    DisjointClasses,
    Entity,
    EquivalentClasses,
    FunctionalObjectProperty,
    Import,
    Kind,
    Named,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Only,
    Or,
    OWL_NOTHING,
    OWL_THING,
    Some,
    SubClassOf,
    SubObjectPropertyOf,
    TransitiveObjectProperty,
)

TOP = OWL_THING.iri
BOT = OWL_NOTHING.iri

_PROPERTY_AXIOMS = (
    ObjectPropertyDomain,
    ObjectPropertyRange,
    FunctionalObjectProperty,
    TransitiveObjectProperty,
    SubObjectPropertyOf,
)


class UnknownEntity(OntoforgeError):
    """A query named a class outside the classified signature."""


# --- normal forms ----------------------------------------------------------

# Compared and hashed by value; nothing assigns to a normal form once it is built.

@dataclass(slots=True, unsafe_hash=True)
class AtomAtom:
    sub: str
    sup: str


@dataclass(slots=True, unsafe_hash=True)
class ConjAtom:
    left1: str
    left2: str
    sup: str


@dataclass(slots=True, unsafe_hash=True)
class AtomExists:
    sub: str
    role: str
    filler: str


@dataclass(slots=True, unsafe_hash=True)
class ExistsAtom:
    role: str
    filler: str
    sup: str


NormalAxiom = AtomAtom | ConjAtom | AtomExists | ExistsAtom


@dataclass(frozen=True)
class SkippedAxiom:
    axiom: Axiom
    construct: str  # what falls outside the fragment: "union", "ObjectPropertyRange", ...

    @property
    def reason(self) -> str:
        return f"{self.construct} is outside the fragment"


@dataclass
class NormalizeResult:
    normal: list[NormalAxiom] = field(default_factory=list)
    skipped: list[SkippedAxiom] = field(default_factory=list)
    classes: set[str] = field(default_factory=set)
    next_aux: int = 1  # the number the next auxiliary name would get


def _atom(ce: ClassExpression | str) -> str | None:
    """The atom ce is, if any; an auxiliary name (never an IRI) is its own atom."""
    if isinstance(ce, Named):
        return ce.entity.iri
    if isinstance(ce, str):
        return ce
    return None


_OUTSIDE = {Or: "union", Not: "complement", Only: "universal restriction"}


class _Normalizer:
    """Normal forms, skips and class signature of a sequence of axioms.

    `_scan` reads each operand of a class axiom once (a union on the left again,
    disjunct by disjunct). A union, complement or universal restriction names
    itself, though its classes are collected; an intersection names the first
    construct that its operands name, in order. `_lhs_atom` and `_rhs_atom`
    name a complex expression once per side, in tables that die with the
    normalizer, so a probe never reuses a name whose normal forms were undone.
    """

    def __init__(self, first_aux: int) -> None:
        self.result = NormalizeResult(next_aux=first_aux)
        self._lhs_names: dict = {}  # complex ce -> its name A: ce ⊑ A
        self._rhs_names: dict = {}  # complex ce -> its name A: A ⊑ ce

    def fresh(self) -> str:
        name = f"_aux{self.result.next_aux}"
        self.result.next_aux += 1
        return name

    def run(self, axioms) -> NormalizeResult:
        for axiom in axioms:
            self._axiom(axiom)
        # owl:Thing and owl:Nothing are atoms of every saturation, not classes
        # of the ontology, even when it declares them.
        self.result.classes.difference_update((TOP, BOT))
        return self.result

    def _axiom(self, axiom: Axiom) -> None:
        res = self.result
        if isinstance(axiom, Declaration):
            if axiom.entity.kind == Kind.CLASS:
                res.classes.add(axiom.entity.iri)
            return
        if isinstance(axiom, SubClassOf):
            self._sub(axiom.sub, self._scan(axiom.sub), axiom.sup, self._scan(axiom.sup), axiom)
            return
        if isinstance(axiom, EquivalentClasses):
            ops = axiom.operands
            bad = [self._scan(op) for op in ops]
            for i, op in enumerate(ops):
                j = (i + 1) % len(ops)
                self._sub(op, bad[i], ops[j], bad[j], axiom)
            return
        if isinstance(axiom, DisjointClasses):
            ops = [e.iri for e in axiom.operands]
            res.classes.update(ops)
            for i in range(len(ops)):
                for j in range(i + 1, len(ops)):
                    res.normal.append(ConjAtom(ops[i], ops[j], BOT))
            return
        if isinstance(axiom, (AnnotationAssertion, Import)):
            return
        if isinstance(axiom, _PROPERTY_AXIOMS):
            res.skipped.append(SkippedAxiom(axiom, type(axiom).__name__))
            return
        raise TypeError(f"not an axiom: {axiom!r}")

    def _sub(self, sub: ClassExpression, sub_bad: str | None,
             sup: ClassExpression, sup_bad: str | None, origin: Axiom) -> None:
        """Normalize sub ⊑ sup, given what `_scan` named for each side."""
        if isinstance(sub, Or):  # one subsumption per disjunct, each read again
            for disjunct in sub.operands:
                self._sub(disjunct, self._scan(disjunct), sup, sup_bad, origin)
            return
        bad = sub_bad or sup_bad
        if bad:
            skipped = self.result.skipped
            if not skipped or skipped[-1].axiom is not origin:  # one record per axiom
                skipped.append(SkippedAxiom(origin, bad))
            return
        self._emit(sub, sup)

    def _scan(self, ce: ClassExpression) -> str | None:
        """Add ce's classes to the signature; name its first construct outside the fragment."""
        if isinstance(ce, Named):
            self.result.classes.add(ce.entity.iri)
            return None
        if isinstance(ce, (Some, Only)):
            inner = (ce.filler,)
        elif isinstance(ce, Not):
            inner = (ce.operand,)
        else:
            inner = ce.operands
        bad = None
        for op in inner:
            found = self._scan(op)
            bad = bad or found
        return _OUTSIDE.get(type(ce), bad)

    def _conjuncts(self, ce: ClassExpression, out: list[ClassExpression]) -> None:
        if isinstance(ce, And):
            for op in ce.operands:
                self._conjuncts(op, out)
        else:
            out.append(ce)

    def _lhs_atom(self, ce: ClassExpression | str) -> str:
        """An atom A with ce ⊑ A, naming ce the first time it is complex."""
        atom = _atom(ce) or self._lhs_names.get(ce)
        if atom is None:
            atom = self._lhs_names[ce] = self.fresh()
            self._emit_lhs(ce, atom)
        return atom

    def _rhs_atom(self, ce: ClassExpression) -> str:
        """An atom A with A ⊑ ce, naming ce the first time it is complex."""
        atom = _atom(ce) or self._rhs_names.get(ce)
        if atom is None:
            atom = self._rhs_names[ce] = self.fresh()
            self._emit(atom, ce)
        return atom

    def _emit(self, sub: ClassExpression | str, sup: ClassExpression) -> None:
        sup_atom = _atom(sup)
        if sup_atom is None:
            if isinstance(sup, And):
                for op in sup.operands:
                    self._emit(sub, op)
                return
            assert isinstance(sup, Some)
            filler = self._rhs_atom(sup.filler)
            self.result.normal.append(
                AtomExists(self._lhs_atom(sub), sup.property.iri, filler)
            )
            return
        self._emit_lhs(sub, sup_atom)

    def _emit_lhs(self, sub: ClassExpression | str, sup_atom: str) -> None:
        atom = _atom(sub)
        if atom is not None:
            self.result.normal.append(AtomAtom(atom, sup_atom))
            return
        if isinstance(sub, Some):
            filler = self._lhs_atom(sub.filler)
            self.result.normal.append(ExistsAtom(sub.property.iri, filler, sup_atom))
            return
        assert isinstance(sub, And)
        flat: list[ClassExpression] = []
        self._conjuncts(sub, flat)
        atoms = [self._lhs_atom(c) for c in flat]
        acc = atoms[0]
        for middle in atoms[1:-1]:
            aux = self.fresh()
            self.result.normal.append(ConjAtom(acc, middle, aux))
            acc = aux
        self.result.normal.append(ConjAtom(acc, atoms[-1], sup_atom))


def normalize(axioms, first_aux: int = 1) -> NormalizeResult:
    """Rewrite axioms into normal forms, naming auxiliaries from _aux{first_aux} on."""
    return _Normalizer(first_aux).run(axioms)


# --- saturation ------------------------------------------------------------


class Saturation:
    """S and the role edges of every normal axiom added so far, at the least fixpoint.

    Six tables, each relation stored once: S; the edges, by target
    (`edges_by_target[D]` holds (r, C) for each (C, D) ∈ R(r));
    `conj_by_operand[A]`, the (A', B) of each A ⊓ A' ⊑ B, where A ⊑ B is
    filed as A ⊓ owl:Thing ⊑ B; `exists_rhs_by_lhs[A]`, the (r, B) of each
    A ⊑ ∃r.B; and two indexes of the ∃r.E ⊑ B: `exists_lhs_by_filler[E][r]`
    lists their B, and `fillers_by_role[r]` holds their E, so a new edge
    (C, D) ∈ R(r) meets S(D) in one set intersection. `extend` writes each
    conclusion straight into its own context. From the first `mark()` on,
    every addition to a table is recorded on a trail; `undo(mark)` takes
    those made since mark back.
    """

    def __init__(self) -> None:
        self.S: dict[str, set[str]] = {}
        self.edges_by_target: dict[str, set[tuple[str, str]]] = {}
        self.conj_by_operand: dict[str, list[tuple[str, str]]] = {}
        self.exists_rhs_by_lhs: dict[str, list[tuple[str, str]]] = {}
        self.exists_lhs_by_filler: dict[str, dict[str, list[str]]] = {}
        self.fillers_by_role: dict[str, set[str]] = {}
        self._trail: list[tuple] | None = None  # (forget, item): forget(item) undoes one

    def mark(self) -> int:
        self._trail = [] if self._trail is None else self._trail
        return len(self._trail)

    def undo(self, mark: int) -> None:
        while len(self._trail) > mark:
            forget, item = self._trail.pop()
            forget(item)

    def extend(self, normal: list[NormalAxiom], atoms=()) -> None:
        """Add normal axioms and atoms, then saturate from the old fixpoint.

        Each context C (an atom) keeps a worklist of the subsumers added to
        S(C) whose rules have not run yet. A new atom starts with {itself,
        owl:Thing}; an old atom C re-runs each trigger D in S(C): the left
        atom of a new A ⊑ B or A ⊑ ∃r.B, one operand of a new A1 ⊓ A2 ⊑ B,
        or the E of a new ∃r.E ⊑ B.
        """
        S, edges_by_target, trail = self.S, self.edges_by_target, self._trail
        conj_by_operand, exists_rhs_by_lhs = self.conj_by_operand, self.exists_rhs_by_lhs
        exists_lhs_by_filler, fillers_by_role = self.exists_lhs_by_filler, self.fillers_by_role
        universe: set[str] = set(atoms) | {TOP, BOT}
        triggers: set[str] = set()

        def entry(table: dict, key, make):
            value = table.get(key)
            if value is None:
                value = table[key] = make()
                if trail is not None:
                    trail.append((table.pop, key))
            return value

        def index(table: dict, key, value) -> None:
            entries = entry(table, key, list)
            entries.append(value)
            if trail is not None:
                trail.append((entries.pop, -1))

        def member(table: dict, key, value) -> bool:
            values = entry(table, key, set)
            if value in values:
                return False
            values.add(value)
            if trail is not None:
                trail.append((values.remove, value))
            return True

        def exists_lhs(role: str, filler: str, sup: str) -> None:
            index(entry(exists_lhs_by_filler, filler, dict), role, sup)
            member(fillers_by_role, role, filler)

        for ax in normal:
            if isinstance(ax, AtomAtom):
                universe.update((ax.sub, ax.sup))
                index(conj_by_operand, ax.sub, (TOP, ax.sup))  # owl:Thing is in every S(C)
                triggers.add(ax.sub)
            elif isinstance(ax, ConjAtom):
                universe.update((ax.left1, ax.left2, ax.sup))
                index(conj_by_operand, ax.left1, (ax.left2, ax.sup))
                index(conj_by_operand, ax.left2, (ax.left1, ax.sup))
                triggers.add(ax.left1)  # R2 needs both operands in S(C), so one suffices
            elif isinstance(ax, AtomExists):
                universe.update((ax.sub, ax.filler))
                index(exists_rhs_by_lhs, ax.sub, (ax.role, ax.filler))
                triggers.add(ax.sub)
                # R⊥ is R4 over ∃r.⊥ ⊑ ⊥, indexed before r has an edge; an
                # ∃r.⊥ ⊑ B may have made the role's list already, so look in it
                if BOT not in exists_lhs_by_filler.get(BOT, {}).get(ax.role, ()):
                    exists_lhs(ax.role, BOT, BOT)
            elif isinstance(ax, ExistsAtom):
                universe.update((ax.filler, ax.sup))
                exists_lhs(ax.role, ax.filler, ax.sup)
                triggers.add(ax.filler)
            else:
                raise TypeError(f"not a normal axiom: {ax!r}")

        # context -> its pending subsumers, drained last in first out; a new
        # atom is in no old S(C), so only an old trigger sends old contexts back
        rerun = S.items() if not triggers.isdisjoint(S) else ()
        todo = {c: list(fired) for c, sups in rerun if (fired := triggers.intersection(sups))}
        for a in universe.difference(S):
            entry(S, a, set).update((a, TOP))
            todo[a] = list(S[a])

        while todo:
            c, pending = todo.popitem()
            Sc = S[c]
            while pending:
                d = pending.pop()
                for other, sup in conj_by_operand.get(d, ()):  # R1 and R2
                    if other in Sc and sup not in Sc:
                        Sc.add(sup)
                        pending.append(sup)
                        if trail is not None:
                            trail.append((Sc.remove, sup))
                for role, filler in exists_rhs_by_lhs.get(d, ()):  # R3, then R4 over the new edge
                    into = edges_by_target.get(filler) or entry(edges_by_target, filler, set)
                    if (role, c) in into:
                        continue
                    into.add((role, c))
                    if trail is not None:
                        trail.append((into.remove, (role, c)))
                    for e in fillers_by_role[role].intersection(S[filler]):
                        for sup in exists_lhs_by_filler[e][role]:
                            if sup not in Sc:
                                Sc.add(sup)
                                pending.append(sup)
                                if trail is not None:
                                    trail.append((Sc.remove, sup))
                sups_by_role = exists_lhs_by_filler.get(d)
                if sups_by_role:  # R4 over the edges into c, when d fills some ∃r.d ⊑ B
                    for role, src in edges_by_target.get(c, ()):
                        for sup in sups_by_role.get(role, ()):
                            Ssrc = S[src]
                            if sup not in Ssrc:
                                Ssrc.add(sup)
                                if trail is not None:
                                    trail.append((Ssrc.remove, sup))
                                todo.setdefault(src, []).append(sup)


# --- the classified view ---------------------------------------------------


class Taxonomy:
    """The named classes' view of a saturation's S; it copies nothing.

    A view holds until the next `add` or `undo` of the classifier it came from.
    """

    def __init__(self, S: dict[str, set[str]], classes: frozenset[str], skipped) -> None:
        self.S, self.classes, self.skipped = S, classes, skipped
        self.subsumers: Mapping[str, frozenset[str]] = _Subsumers(S, classes)

    @cached_property
    def unsatisfiable(self) -> frozenset[str]:
        return frozenset(c for c in self.classes if BOT in self.S[c])


class _Subsumers(Mapping):
    """Named class -> its named subsumers, read from S on each lookup."""

    def __init__(self, S: dict[str, set[str]], classes: frozenset[str]) -> None:
        self._S, self._classes = S, classes

    @cached_property
    def _named(self) -> frozenset[str]:
        return self._classes | {TOP, BOT}

    def __getitem__(self, c: str) -> frozenset[str]:
        if c not in self._classes:
            raise KeyError(c)
        return self._named.intersection(self._S[c])

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


@dataclass(frozen=True)
class CoherenceReport:
    coherent: bool
    unsatisfiable: tuple[str, ...]


class Classifier:
    """A classification that axioms can be added to and taken back from.

    Its taxonomy equals `classify` of every axiom added and not undone.
    """

    def __init__(self, axioms) -> None:
        self.saturation = Saturation()
        self._classes: frozenset[str] = frozenset()
        self._skipped: tuple[SkippedAxiom, ...] = ()
        self._next_aux = 1  # carries on across undo, so auxiliary names never repeat
        self.add(axioms)

    def add(self, axioms) -> None:
        norm = normalize(axioms, self._next_aux)
        self._next_aux = norm.next_aux
        self._classes |= norm.classes
        self._skipped += tuple(norm.skipped)
        self.saturation.extend(norm.normal, norm.classes)

    def mark(self) -> tuple:
        return self.saturation.mark(), self._classes, self._skipped

    def undo(self, mark: tuple) -> None:
        at, self._classes, self._skipped = mark
        self.saturation.undo(at)

    def taxonomy(self) -> Taxonomy:
        return Taxonomy(self.saturation.S, self._classes, self._skipped)


def classify(axioms) -> Taxonomy:
    """Normalize and saturate the axioms; the view of the result."""
    return Classifier(axioms).taxonomy()


def _lookup(taxonomy: Taxonomy, key: str) -> str:
    if key not in taxonomy.classes and key not in (TOP, BOT):
        raise UnknownEntity(f"<{key}> is not a named class of the classified ontology")
    return key


def inferred_superclass(
    taxonomy: Taxonomy, sub: Entity, sup: Entity, reflexive: bool = False
) -> bool:
    """Whether sub ⊑ sup is entailed; reflexive pairs count only when asked."""
    a = _lookup(taxonomy, sub.iri)
    b = _lookup(taxonomy, sup.iri)
    if a == b and not reflexive:
        return False
    return b in taxonomy.S[a]


def coherence_report(taxonomy: Taxonomy) -> CoherenceReport:
    unsat = tuple(sorted(taxonomy.unsatisfiable))
    return CoherenceReport(not unsat, unsat)


def direct_superclasses(taxonomy: Taxonomy, name: str) -> list[str]:
    """Named strict superclasses with nothing strictly between, sorted.

    S is closed: d ∈ S(e) gives S(d) ⊆ S(e), so d is strictly above e
    exactly when |S(d)| < |S(e)|, and equivalent classes never hide each
    other. One sort ranks the candidates by the size of their S. The
    largest is the only direct one when it holds every other candidate and
    none ties it, which settles a class in a tree with one subset test;
    otherwise a candidate is direct when no larger one holds it.
    """
    S = taxonomy.S
    subsumers = S[_lookup(taxonomy, name)]
    size = len(subsumers)
    strict = [(n, d) for d in subsumers.intersection(taxonomy.classes) if (n := len(S[d])) < size]
    if not strict:
        return []
    strict.sort()
    top_size, top = strict[-1]
    if (len(strict) == 1 or strict[-2][0] < top_size) and S[top].issuperset(d for _, d in strict):
        return [top]
    return sorted(
        d for i, (n, d) in enumerate(strict)
        if not any(m > n and d in S[e] for m, e in strict[i + 1:])
    )
