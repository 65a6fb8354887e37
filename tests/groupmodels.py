"""Independent concrete models of the small corpus groups.

Nothing here touches the engine's matrices or normal forms: elements are
plain tuples, multiplication is function composition, and lengths come from
breadth-first search in the model's own Cayley graph.  The tests compare the
engine against these models letter by letter.
"""

from collections import deque


class ConcreteModel:
    """A group given by explicit composable elements.

    gens[i] is the model image of the engine's generator i; compose(g, h)
    is the product "g after h", matching left-to-right products of words.
    """

    def __init__(self, gens, compose, identity):
        self.gens = list(gens)
        self.compose = compose
        self.identity = identity

    def word(self, letters):
        out = self.identity
        for s in letters:
            out = self.compose(out, self.gens[s])
        return out

    def bfs_lengths(self, max_length=None):
        """Distance from the identity in the (right) Cayley graph, optionally
        truncated (needed for the infinite models)."""
        dist = {self.identity: 0}
        queue = deque([self.identity])
        while queue:
            g = queue.popleft()
            if max_length is not None and dist[g] >= max_length:
                continue
            for h in self.gens:
                gh = self.compose(g, h)
                if gh not in dist:
                    dist[gh] = dist[g] + 1
                    queue.append(gh)
        return dist

    def order_of(self, g, cap=1000):
        p, k = g, 1
        while p != self.identity:
            p = self.compose(p, g)
            k += 1
            if k > cap:
                return None
        return k


def dihedral_model(m):
    """Affine maps x -> sign*x + shift on Z/m (on Z when m is None): the
    dihedral group of order 2m, generated by the reflections x -> -x and
    x -> -x + 1."""
    if m is None:
        def compose(a, b):
            return (a[0] * b[0], a[0] * b[1] + a[1])
    else:
        def compose(a, b):
            return (a[0] * b[0], (a[0] * b[1] + a[1]) % m)
    return ConcreteModel([(-1, 0), (-1, 1 if m is None else 1 % m)],
                         compose, (1, 0))


def symmetric_model(n):
    """S_n on tuples, generated by adjacent transpositions."""
    identity = tuple(range(n))
    gens = []
    for i in range(n - 1):
        g = list(identity)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(n))

    return ConcreteModel(gens, compose, identity)


def signed_permutation_model(n):
    """Signed permutations of {1..n} as image tuples, generated by the sign
    flip of 1 followed by the adjacent transpositions (so generator 0 pairs
    with generator 1 in a 4-fold braid)."""
    identity = tuple(range(1, n + 1))
    flip = (-1,) + identity[1:]
    gens = [flip]
    for i in range(n - 1):
        g = list(identity)
        g[i], g[i + 1] = g[i + 1], g[i]
        gens.append(tuple(g))

    def compose(a, b):
        out = []
        for i in range(n):
            v = b[i]
            image = a[abs(v) - 1]
            out.append(image if v > 0 else -image)
        return tuple(out)

    return ConcreteModel(gens, compose, identity)


def icosahedral_model():
    """H3 as A5 x Z/2: each reflection r maps to the rotation -r, an
    involution of A5 acting on 5 points, paired with the sign -1 of the
    central element -1.  The three involutions satisfy the H3 braid orders
    5 (a b), 3 (b c) and 2 (a c) and generate A5, so the image has order
    120 = |H3| and the map is an isomorphism."""
    gens = [((0, 2, 1, 4, 3), -1), ((1, 0, 3, 2, 4), -1), ((0, 4, 3, 2, 1), -1)]

    def compose(a, b):
        return (tuple(a[0][i] for i in b[0]), a[1] * b[1])

    return ConcreteModel(gens, compose, (tuple(range(5)), 1))


MODELS = {
    "a2": lambda: dihedral_model(3),
    "b2": lambda: dihedral_model(4),
    "g2": lambda: dihedral_model(6),
    "a1xa1": lambda: dihedral_model(2),
    "a3": lambda: symmetric_model(4),
    "b3": lambda: signed_permutation_model(3),
    "h3": icosahedral_model,
    "dihedral_inf": lambda: dihedral_model(None),
}
