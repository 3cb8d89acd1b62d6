"""Integer partitions and the box statistics feeding the hook products.

Conventions: a partition is a weakly decreasing tuple of positive parts,
boxes are 1-based (i, j) with i the row and j the column, and for a box s:

    arm(s)  = lambda_i - j          cells strictly right of s
    leg(s)  = lambda'_j - i         cells strictly below s
    hook(s) = arm(s) + leg(s) + 1
"""


class Partition:
    """Immutable partition with cached conjugate."""

    __slots__ = ("parts", "_conj")

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive: %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        self.parts = parts
        self._conj = None

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self):
        """Transpose of the diagram."""
        if self._conj is None:
            conj = []
            for j in range(1, (self.parts[0] if self.parts else 0) + 1):
                conj.append(sum(1 for p in self.parts if p >= j))
            self._conj = Partition(conj)
            self._conj._conj = self
        return self._conj

    def boxes(self):
        """All boxes, row-major: (1,1), (1,2), ..., deterministic order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def arm_legs(self):
        """(arm, leg) of every box, in the row-major order of boxes()."""
        conj = self.conjugate().parts
        return [(p - j, conj[j - 1] - i)
                for i, p in enumerate(self.parts, start=1) for j in range(1, p + 1)]

    def n_stat(self):
        """n(lambda) = sum (i-1) * lambda_i = total leg count."""
        return sum((i - 1) * p for i, p in enumerate(self.parts, start=1))

    def norm_form(self):
        """<lambda, lambda> = sum of squared conjugate parts."""
        return sum(p * p for p in self.conjugate().parts)


def enumerate_partitions(n):
    """Partitions of n in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def rec(rem, maxpart, prefix):
        if rem == 0:
            out.append(Partition(prefix))
            return
        for k in range(min(rem, maxpart), 0, -1):
            rec(rem - k, k, prefix + (k,))

    rec(n, n if n else 1, ())
    return out


def partitions_up_to(n):
    """All partitions of weight 0..n in one flat list, weights ascending."""
    return [lam for k in range(n + 1) for lam in enumerate_partitions(k)]
