"""Finite groups given by their multiplication tables, cosets, and the transfer map.

Elements are the integers 0..order-1; an optional label map carries the
external meaning (e.g. coprime residues).  (Z/m)^x has two builders with the
same ids (the ascending coprime residues): `unit_group` computes each product
r*s mod m on read and each inverse by `pow`, so it costs O(m) to set up and
serves the CLI and `splitting._transfer_setup`; `group_from_unit_residues`
stores all phi(m)^2 products, which only the transfer-props corpus uses: it
reads each small table so often that computing the products slowed the suite
by a fifth.  The transfer of g from G to a subgroup U is computed by
the literal coset formula: pick representatives r_i, solve g*r_i = r_j * u_j
with u_j in U, and multiply the u_j modulo the commutator subgroup of U.  Each
subgroup keeps one canonical coset lookup (element -> canonical coset); a
caller's transversal adds only a position and an inverse rep per coset, so
u_j = r_j^-1 * (g*r_i) costs O(1) per coset.  One loop multiplies the u_j for
a batch of elements: `transfer` runs it for one g and returns the value with
its per-coset trace, `transfer_values` runs it for a batch and returns the
values alone, and `transfer_homomorphism` is `transfer_values` over all of G.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from itertools import product as iter_product

from .arith import euler_phi
from .errors import InvalidArgumentError, InvalidHomomorphismError, TooLargeError

TABLE_BOUND = 4096


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A group given by its full multiplication table (identity semantics for eq/hash)."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[int, ...] | None = None

    @cached_property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def elements(self) -> range:
        return range(self.order)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        t, e = self.table, self.identity
        inv = tuple(row.index(e) if e in row else -1 for row in t)
        for a, b in enumerate(inv):
            if b < 0 or t[b][a] != e:
                raise InvalidArgumentError(f"element {a} has no two-sided inverse")
        return inv

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        result = self.identity
        square = a
        while k:
            if k & 1:
                result = self.table[result][square]
            square = self.table[square][square]
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        x = a
        for k in range(1, self.order + 1):
            if x == self.identity:
                return k
            x = self.table[x][a]
        raise InvalidArgumentError(f"element {a} has no power equal to the identity")

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.elements for b in self.elements)

    @cached_property
    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in self.elements)

    def label_of(self, a: int) -> int:
        return self.labels[a] if self.labels is not None else a

    @cached_property
    def _id_of_label(self) -> dict[int, int]:
        return {self.label_of(i): i for i in self.elements}

    def id_of(self, label: int) -> int:
        """The element carrying `label`; InvalidArgumentError if there is none."""
        try:
            return self._id_of_label[label]
        except KeyError:
            raise InvalidArgumentError(f"no element is labeled {label}") from None

    def check_associative(self) -> bool:
        """Exhaustive associativity check; quadratic-times-order, for tests only."""
        t = self.table
        return all(
            t[t[a][b]][c] == t[a][t[b][c]]
            for a in self.elements
            for b in self.elements
            for c in self.elements
        )


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a table group, stored as a sorted tuple of element ids."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_elements(self.parent, self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    @cached_property
    def cosets(self) -> CosetDecomposition:
        """The canonical left-coset decomposition of the parent by this subgroup."""
        return coset_decomposition(self)

    @cached_property
    def derived(self) -> Subgroup:
        """The commutator subgroup U', the modulus of every transfer to this subgroup."""
        return derived_subgroup(self)

    def validate(self) -> None:
        require_subgroup(self.members, self.parent.identity, self.parent.op)


@dataclass(frozen=True)
class CosetDecomposition:
    """Left coset representatives r_i for G/U, over U's canonical coset lookup.

    canonical[g] = c names g's canonical coset (U's own lookup, shared by every
    transversal of U); position[c] = i and inverse_reps[c] = r_i^-1 for its rep
    r_i here.  Only reps and the two per-coset tuples belong to one transversal.
    """

    # No field refers back to U, which caches its decomposition: that cycle would wait for the GC.
    reps: tuple[int, ...]
    canonical: tuple[int, ...]
    position: tuple[int, ...]
    inverse_reps: tuple[int, ...]


@dataclass(frozen=True)
class TransferResult:
    """Transfer value (canonical rep of the coset mod U') plus the per-rep trace."""

    value: int
    contributions: tuple[tuple[int, int, int], ...]  # (rep index i, target index j, u in U)


@dataclass(frozen=True)
class TabulatedHom:
    """A map G -> G, G = modulo.parent, tabulated per element; values are canonical reps mod `modulo`."""

    values: tuple[int, ...]
    modulo: Subgroup  # values live in its parent and are reduced mod this subgroup


def _check_bound(order: int) -> None:
    if order > TABLE_BOUND:
        raise TooLargeError(f"group of order {order} exceeds table bound {TABLE_BOUND}")


def _unit_residues(m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The residues coprime to m, ascending, and residue -> id: the ids of both (Z/m)^x builders."""
    if m < 2:
        raise InvalidArgumentError(f"modulus must be >= 2, got {m}")
    _check_bound(euler_phi(m))
    residues = tuple(r for r in range(1, m) if gcd(r, m) == 1)
    return residues, {r: i for i, r in enumerate(residues)}


def group_from_unit_residues(m: int) -> FiniteGroup:
    """(Z/m)^x as a table group, elements labeled by coprime residues."""
    residues, index = _unit_residues(m)
    table = tuple(
        tuple(index[a * b % m] for b in residues) for a in residues
    )
    return FiniteGroup(table=table, identity=index[1], labels=residues)


class _UnitRow:
    """Row r of (Z/m)^x's table: row[b] is the id of r * r_b mod m, computed on read."""

    __slots__ = ("r", "m", "residues", "index")

    def __init__(self, r: int, m: int, residues: tuple[int, ...], index: dict[int, int]) -> None:
        self.r, self.m, self.residues, self.index = r, m, residues, index

    def __getitem__(self, b: int) -> int:
        return self.index[self.r * self.residues[b] % self.m]


@dataclass(frozen=True, eq=False)
class UnitGroup(FiniteGroup):
    """(Z/m)^x with no stored products: table[a][b] is r_a*r_b mod m and inverses come from pow.

    Its own dataclass __init__ leaves FiniteGroup.__init__ alone, so what counts
    the cells of stored tables through that method counts none here.
    """

    modulus: int = field(kw_only=True)

    @cached_property
    def _id_of_label(self) -> dict[int, int]:
        return self.table[self.identity].index  # the residue -> id index every row shares

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        m, index = self.modulus, self._id_of_label
        return tuple(index[pow(r, -1, m)] for r in self.labels)


def unit_group(m: int) -> UnitGroup:
    """(Z/m)^x with the ids and labels of group_from_unit_residues(m), in O(m) time and memory."""
    residues, index = _unit_residues(m)
    table = tuple(_UnitRow(r, m, residues, index) for r in residues)
    return UnitGroup(table=table, identity=index[1], labels=residues, modulus=m)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with addition."""
    if n < 1:
        raise InvalidArgumentError(f"cyclic group order must be >= 1, got {n}")
    _check_bound(n)
    base = tuple(range(n))
    table = tuple(base[a:] + base[:a] for a in range(n))  # row a is (a + b) % n over b
    return FiniteGroup(table=table, identity=0)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) gets id a*|G2| + b."""
    n1, n2 = G1.order, G2.order
    _check_bound(n1 * n2)
    table = tuple(
        tuple(G1.table[a1][b1] * n2 + G2.table[a2][b2] for b1, b2 in iter_product(range(n1), range(n2)))
        for a1, a2 in iter_product(range(n1), range(n2))
    )
    return FiniteGroup(table=table, identity=G1.identity * n2 + G2.identity)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


def require_subgroup(members: Iterable[int], identity: int, op: Callable[[int, int], int]) -> list[int]:
    """Generators from one walk over S = members; InvalidArgumentError unless S is a subgroup under op.

    A finite set that holds the identity and that right multiplication by its own elements never
    leaves is a subgroup.  Each generator is the least member not yet reached, so it at least
    doubles the reached subgroup: at most log2|S| generators and |S|*(1 + log2|S|) calls of op.
    """
    s = set(members)
    if identity not in s:
        raise InvalidArgumentError("subgroup is missing the identity")
    reached, seen, gens = [identity], {identity}, []
    while len(reached) < len(s):
        gens.append(min(s - seen))
        old = len(reached)  # these are closed under the earlier generators already
        for i, x in enumerate(reached):  # also visits what the loop appends
            for g in gens if i >= old else gens[-1:]:
                y = op(x, g)
                if y not in s:
                    raise InvalidArgumentError(f"subgroup not closed at {x}*{g}")
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
    return gens


def subgroup_generated(G: FiniteGroup, gens: set[int] | frozenset[int] | tuple[int, ...]) -> Subgroup:
    """Smallest subgroup containing gens, by a walk from the identity over the generators.

    Each new element is right-multiplied by the generators alone: in a finite
    group every generator's inverse is one of its powers, so the walk reaches
    the whole subgroup.
    """
    gens = set(gens)
    if not all(s in G.elements for s in gens):
        raise InvalidArgumentError(f"generators {gens} are not all elements of the group")
    table = G.table
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        row = table[frontier.pop()]
        for s in gens:
            y = row[s]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(parent=G, members=tuple(sorted(members)))


def derived_subgroup(U: Subgroup) -> Subgroup:
    """U' = the normal closure in U of the commutators of U's generators; it lies inside U.

    Closes the commutators [a, b] of the generators, then adds the conjugates
    s^-1*n*s of its generators n by U's generators s until none is new (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, sec. 3.3).
    """
    G = U.parent
    t = G.table
    inv = G.inverses
    gens = require_subgroup(U.members, G.identity, G.op)
    normal = {t[t[a][b]][t[inv[a]][inv[b]]] for a in gens for b in gens}
    while True:
        derived = subgroup_generated(G, normal)
        conjugates = {t[t[inv[s]][n]][s] for s in gens for n in normal} - derived.member_set
        if not conjugates:
            return derived
        normal |= conjugates


def _require_elements(G: FiniteGroup, ids: tuple[int, ...]) -> None:
    """InvalidArgumentError unless every id names an element of G; a negative id would alias one."""
    elements = G.elements
    for x in ids:
        if x not in elements:
            raise InvalidArgumentError(f"{x} is not an element of the group of order {G.order}")


def coset_decomposition(U: Subgroup) -> CosetDecomposition:
    """Canonical decomposition of U.parent: least element id per left coset, reps ascending."""
    G = U.parent
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in G.elements:
        if coset_of[g] < 0:
            row = G.table[g]
            for u in U.members:
                if coset_of[row[u]] >= 0:
                    raise InvalidArgumentError("coset representatives are not disjoint")
                coset_of[row[u]] = len(reps)
            reps.append(g)
    if -1 in coset_of:
        raise InvalidArgumentError("cosets do not cover the group")
    inv = G.inverses
    return CosetDecomposition(
        reps=tuple(reps),
        canonical=tuple(coset_of),
        position=tuple(range(len(reps))),
        inverse_reps=tuple(inv[r] for r in reps),
    )


def decomposition_from_reps(U: Subgroup, reps: tuple[int, ...]) -> CosetDecomposition:
    """Caller-chosen reps, one per canonical coset: U's canonical lookup, shared, plus O(index) per coset."""
    G = U.parent
    _require_elements(G, reps)
    cosets = U.cosets
    canonical = cosets.canonical
    cs = [canonical[r] for r in reps]
    if len(set(cs)) < len(cs):
        raise InvalidArgumentError("coset representatives are not disjoint")
    index = len(cosets.reps)
    if len(cs) < index:
        raise InvalidArgumentError("cosets do not cover the group")
    inv = G.inverses
    position = [0] * index
    inverse_reps = [0] * index
    for i, c in enumerate(cs):
        position[c] = i
        inverse_reps[c] = inv[reps[i]]
    return CosetDecomposition(
        reps=tuple(reps),
        canonical=canonical,
        position=tuple(position),
        inverse_reps=tuple(inverse_reps),
    )


def coset_order(U: Subgroup, x: int) -> int:
    """Order of the coset x*U: the least k >= 1 with x^k in U (at most the index)."""
    _require_elements(U.parent, (x,))
    t = U.parent.table
    members = U.member_set
    y = x
    for k in range(1, U.index + 1):
        if y in members:
            return k
        y = t[y][x]
    raise InvalidArgumentError(f"no power of {x} up to the index {U.index} lies in the subgroup")


def _reduce_mod(xs: Iterable[int], derived: Subgroup) -> tuple[int, ...]:
    """Canonical (least-id) representative of each coset x * U', one per x in xs."""
    if derived.order == 1:
        return tuple(xs)
    t, members = derived.parent.table, derived.members
    return tuple(min(t[x][d] for d in members) for x in xs)


def _transfer_products(
    G: FiniteGroup, decomposition: CosetDecomposition, gs: Iterable[int], record: list | None = None
) -> list[int]:
    """prod u_j over the reps r_i for each g in gs, where g*r_i = r_j*u_j; records (g*r_i, u_j) if asked.

    x = g*r_i lies in the canonical coset canonical[x], whose rep here is r_j,
    so u_j = r_j^-1 * x.  This is the one loop that multiplies the u_j.
    """
    t = G.table
    reps = decomposition.reps
    canonical = decomposition.canonical
    inverse_reps = decomposition.inverse_reps
    identity = G.identity
    products = []
    for g in gs:
        row = t[g]
        prod = identity
        for r in reps:
            x = row[r]
            u = t[inverse_reps[canonical[x]]][x]
            if record is not None:
                record.append((x, u))
            prod = t[prod][u]
        products.append(prod)
    return products


def transfer(U: Subgroup, g: int, decomposition: CosetDecomposition | None = None) -> TransferResult:
    """Transfer of g from U.parent: solve g*r_i = r_j*u_j per coset, return prod u_j mod U' and the trace."""
    G = U.parent
    _require_elements(G, (g,))
    if decomposition is None:
        decomposition = U.cosets
    record: list[tuple[int, int]] = []
    products = _transfer_products(G, decomposition, (g,), record)
    canonical, position = decomposition.canonical, decomposition.position
    contributions = tuple([(i, position[canonical[x]], u) for i, (x, u) in enumerate(record)])
    return TransferResult(value=_reduce_mod(products, U.derived)[0], contributions=contributions)


def transfer_values(
    U: Subgroup, gs: Iterable[int], decomposition: CosetDecomposition | None = None
) -> tuple[int, ...]:
    """transfer(U, g, decomposition).value for each g in gs, with no trace built.

    gs is read once; the batch shares one element check, one pass of the product loop
    and one reduction mod U'.
    """
    G = U.parent
    gs = tuple(gs)
    _require_elements(G, gs)
    if decomposition is None:
        decomposition = U.cosets
    return _reduce_mod(_transfer_products(G, decomposition, gs), U.derived)


def transfer_homomorphism(U: Subgroup) -> TabulatedHom:
    """Tabulate the transfer U.parent -> U (values reduced mod U') for every element."""
    return TabulatedHom(values=transfer_values(U, U.parent.elements), modulo=U.derived)


def kernel_of(hom: TabulatedHom) -> Subgroup:
    """Preimage of the identity coset; first checks f(a*s) = f(a)*f(s) for every a and generator s.

    InvalidArgumentError unless the map has one value per element of G, each an element of G.
    """
    G = hom.modulo.parent
    values = hom.values
    derived = hom.modulo
    if len(values) != G.order:
        raise InvalidArgumentError(f"map has {len(values)} values for a group of order {G.order}")
    _require_elements(G, values)
    t = G.table
    for s in require_subgroup(G.elements, G.identity, G.op):
        v = values[s]
        products = _reduce_mod([t[x][v] for x in values], derived)
        for a in G.elements:
            if products[a] != values[t[a][s]]:
                raise InvalidHomomorphismError(f"map is not a homomorphism at ({a}, {s})")
    # The identity coset of U' is U' itself.
    members = tuple(sorted(g for g in G.elements if values[g] in derived.member_set))
    sub = Subgroup(parent=G, members=members)
    sub.validate()
    return sub
