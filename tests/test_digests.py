"""Relator columns and hom matrices, pinned by SHA-256 digest.

Kernel bases depend on the order of the relators, and so do the rendered
--element images, so a refactor of the code that builds relator columns or
map columns must keep both identical in content and in order.  The digests
were taken before the builders were folded onto the shared helpers in lie,
those of T_6(2), T_7(2), T_4(3), T_5(3) and Tinf_6(2) before unrooted
canonical forms were memoised on canonical content, and those of L_8(2),
L_6(3) and Lq_8(2) before Jacobi triples were built from canonical
branches.
"""

import hashlib

import pytest

from quasilie.eta import beta_hom, dtilde_to_d, eta, eta_prime
from quasilie.lie import LIE, QUASI, bracket_hom, d_tilde, lie_group, sq
from quasilie.treegroups import delta, t_group, t_infinity, t_tilde


def digest(rows, columns):
    return hashlib.sha256(repr((rows, columns)).encode()).hexdigest()


RELATORS = {
    "L_6(2)": (lambda: lie_group(6, 2, LIE).group,
            "f2d7b7232842f963a4bb63ab45a87e00e8c9188942fa727493ed8ee4f036ce54"),
    "Lq_6(2)": (lambda: lie_group(6, 2, QUASI).group,
            "4d0282e92e12768e4e143f8298ed73da05f48eeb66ede0c28ae069030ab18abe"),
    "L_8(2)": (lambda: lie_group(8, 2, LIE).group,
            "3b702a45e4a94cbf11dc40373a51efdef4dc95377d84cb80b54bc6e3d2db9592"),
    "L_6(3)": (lambda: lie_group(6, 3, LIE).group,
            "44e160bbdbc52cb33e6c8f537657a64b5fefef5c3fd5a98cf9d157e1e8e593fd"),
    "Lq_8(2)": (lambda: lie_group(8, 2, QUASI).group,
            "ddd0522a39e2c194e72adcc569e7db9a5c9197871eb39f5d368adbaeb374c0ee"),
    "T_5(2)": (lambda: t_group(5, 2).group,
            "d53ac04dc059b995669a1f79a0e3ebaf02b7e1b8f6a161b0361ec862c6933c7e"),
    "T_6(2)": (lambda: t_group(6, 2).group,
            "2ff52e64261dd5a5a941122e4b997ccfc46ca987b0996b9e54d5bdebd036a9f2"),
    "T_7(2)": (lambda: t_group(7, 2).group,
            "b5132ae20ded079c0c51436996cfa3c96b8f2d2839780e6aca007d8a471cb3ac"),
    "T_4(3)": (lambda: t_group(4, 3).group,
            "adb8b6cea1647b134727b4851fdeb1bb5121077d41bce70f36e5a34f1a0a533a"),
    "T_5(3)": (lambda: t_group(5, 3).group,
            "bf440d8d392b5a094e0a3f9de320dcd9a69fe174aa241dc881e7a3248a2888a4"),
    "Ttilde_5(2)": (lambda: t_tilde(5, 2).group,
            "7ed006954e70bd64436457c57b6566ccb42600bd62fbb2c3a2fc067c9186cb5b"),
    "Tinf_4(2)": (lambda: t_infinity(4, 2).group,
            "3a64146a19b86f2edfa452b5289406293a6b5374553fc288caf7a8b355767ecd"),
    "Tinf_5(2)": (lambda: t_infinity(5, 2).group,
            "df7aa44481c8f5d18b106a298b609e79617eded803c78e4ab900edf490a6146b"),
    "Tinf_6(2)": (lambda: t_infinity(6, 2).group,
            "d2ad96ecbf0bd6a60e3468e13fe479af494c0560559a9951465c2cc4b240c153"),
    "Dtilde_3(2)": (lambda: d_tilde(3, 2)[0],
            "0b1bdd28816bfb204f9c071aa04f03ef761792821eefc88697c95a79d7fa465d"),
}

MATRICES = {
    "eta'(4,2)": (lambda: eta_prime(4, 2),
            "df30909c812a5bdbae34aea47d2473dce0c572579aa7a3f7e298e3e62e4b0622"),
    "eta(4,2)": (lambda: eta(4, 2),
            "6cd685c60a5744e843f89511f027bac7ecb449fb1ae2fd5a61481fc758dd293c"),
    "delta(3,2)": (lambda: delta(3, 2),
            "18532e18a0d9cd83106a708eb722626d72b1f07fbedb8d4857f681a4fcb735f8"),
    "sq(2,2)": (lambda: sq(2, 2),
            "ce3015cdfe95a35403ef1ee4cc3763e32adfb1b3db43e22f39670657d3bb29b5"),
    "bracket(3,2)": (lambda: bracket_hom(3, 2),
            "300f2dc26f31a90fe6d07333b1cd9cd6d773dcfb136b897073b6f5bbef56b150"),
    "beta_hom(2,2)": (lambda: beta_hom(2, 2),
            "18083e0999e9c6855a0d639608f62efdcaaffe3f32d436645399290fd79f5221"),
    "dtilde_to_d(3,2)": (lambda: dtilde_to_d(3, 2),
            "1a07265397392af4d871b726cb4003261bc165e05c3d9f308f9cb776ab989af0"),
}


@pytest.mark.parametrize("name", RELATORS)
def test_relator_columns(name):
    build, want = RELATORS[name]
    g = build()
    assert digest(g.ngens, g.relations.sparse_columns()) == want


@pytest.mark.parametrize("name", MATRICES)
def test_hom_matrix(name):
    build, want = MATRICES[name]
    h = build()
    assert digest(h.matrix.rows, h.matrix.sparse_columns()) == want
