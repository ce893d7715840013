"""Relator columns and hom matrices, pinned by SHA-256 digest.

Kernel bases depend on the order of the relators, and so do the rendered
--element images, so a refactor of the code that builds relator columns or
map columns must keep both identical in content and in order.  The digests
were taken before the builders were folded onto the shared helpers in lie,
those of T_6(2), T_7(2), T_4(3), T_5(3) and Tinf_6(2) before unrooted
canonical forms were memoised on canonical content, and those of L_8(2),
L_6(3) and Lq_8(2) before Jacobi triples were built from canonical
branches.  The nine digests of T, Ttilde and Tinf groups were re-taken when
IHX went from one relator per arrangement (A, B, C | D) of a 4-valent vertex
to one per vertex: the columns are fewer, and the relation lattice, checked
against the old relators in test_treegroups, is the same.

The CLI digests pin the exit code, stdout and stderr of whole commands:
`verify all` with its --report file, `map` on every map name at orders 0-4
with 2 labels, --element renderings through the ambient inclusion and
`quadratic bridge`.  They were taken before `abelian` returned sparse
vectors from `Lattice` and `AbelianHom.preimage_vector`.
"""

import hashlib

import pytest

from quasilie import cli
from quasilie.eta import beta_hom, d_tilde, dtilde_to_d, eta, eta_prime
from quasilie.lie import LIE, QUASI, bracket_hom, lie_group, sq
from quasilie.treegroups import delta, t_group, t_infinity, t_tilde


def digest(rows, columns):
    return hashlib.sha256(repr((rows, columns)).encode()).hexdigest()


RELATORS = {
    "L_6(2)": (lambda: lie_group(6, 2, LIE),
            "f2d7b7232842f963a4bb63ab45a87e00e8c9188942fa727493ed8ee4f036ce54"),
    "Lq_6(2)": (lambda: lie_group(6, 2, QUASI),
            "4d0282e92e12768e4e143f8298ed73da05f48eeb66ede0c28ae069030ab18abe"),
    "L_8(2)": (lambda: lie_group(8, 2, LIE),
            "3b702a45e4a94cbf11dc40373a51efdef4dc95377d84cb80b54bc6e3d2db9592"),
    "L_6(3)": (lambda: lie_group(6, 3, LIE),
            "44e160bbdbc52cb33e6c8f537657a64b5fefef5c3fd5a98cf9d157e1e8e593fd"),
    "Lq_8(2)": (lambda: lie_group(8, 2, QUASI),
            "ddd0522a39e2c194e72adcc569e7db9a5c9197871eb39f5d368adbaeb374c0ee"),
    "T_5(2)": (lambda: t_group(5, 2),
            "90e6246e340c46df15d478046fdb3b417a3e7857d732fa64ea2385e0a737e921"),
    "T_6(2)": (lambda: t_group(6, 2),
            "3bd07af2f3a5f6c521ee3757586ea503a80abd4803c294d7a7fcbc7b4f940ad0"),
    "T_7(2)": (lambda: t_group(7, 2),
            "9009c2a8b9d2034c4976c8f4e4824a6d9acc74fc25c94ed24d1c057f1f198093"),
    "T_4(3)": (lambda: t_group(4, 3),
            "ccd96bba4d6c07361041933378683dff1538ee6e71f19a978a3e473a0840f8d3"),
    "T_5(3)": (lambda: t_group(5, 3),
            "d2bf1c51f3df818dce3b0f6efbe796586f952eda60959f954f19cd79f045f23c"),
    "Ttilde_5(2)": (lambda: t_tilde(5, 2),
            "bc9b4e59a1802486ea9af82faa0fd4b22e50dbf55bc3bb9f09359c572bc1115d"),
    "Tinf_4(2)": (lambda: t_infinity(4, 2).group,
            "3a629e8eb0e7e9664936b1b9f79af94c346255d7c0740927200e88ac89da5bc6"),
    "Tinf_5(2)": (lambda: t_infinity(5, 2).group,
            "2c23418198c72e20ad4f032aab625b6abe72d59870cf76c35691da4bb613770c"),
    "Tinf_6(2)": (lambda: t_infinity(6, 2).group,
            "6fa29d2be2004ed8c553687e90aa174517ee208dcb1da1cb40e9c1958933ee07"),
    "Dtilde_3(2)": (lambda: d_tilde(3, 2),
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


def run_digest(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return hashlib.sha256(repr((code, out.out, out.err)).encode()).hexdigest()


VERIFY = {
    (5, 2): "bda3b910fa24abdfce2a7c7d38c13a33df1f7ba111d8cc3ad662336e2859f010",
    (4, 3): "e9d5fb55ce5e866d6beb378d25ff3866e58324924045f736612e696821b6171e",
}


@pytest.mark.parametrize("order,labels", VERIFY)
def test_verify_all_output(capsys, tmp_path, order, labels):
    report = tmp_path / "report.json"
    argv = ["--max-order", str(order), "--max-labels", str(labels), "verify",
            "all", "--max-order", str(order), "--labels", str(labels)]
    assert run_digest(capsys, argv) == VERIFY[order, labels]
    code = cli.main(argv + ["--report", str(report)])
    assert code == 0
    assert report.read_text() == capsys.readouterr().out


MAP_JSON = {
    ("etaP", 0): "a8ba12b4b27198a6c545f6cdfc43947e939d38896fd68fc43f970eae50425344",
    ("etaP", 1): "e090e1881a8dad08b6e10aaf740a81a6558da81246f370b406124385e7574426",
    ("etaP", 2): "6427a6b1c7bcc6da8deec99e4de9f5d26e9b9928cbd4fcbc00a9e98a5b3d411d",
    ("etaP", 3): "130e061f89134eaa4574c8b92e0d96c7cad4f449e934787bd8ef60df5a78c61f",
    ("etaP", 4): "3a3549cc2ef1c625a055cb982f690e84948c9365ffe97ef21d94f654554f6299",
    ("eta", 0): "56ea593dc14fb2b97cc73782c0e3f32be8a09208126c515b0bc3c873548c0f98",
    ("eta", 1): "ea42328f4b5f048864ae18fc633598f266c4ed68777346a8d816eff4b5738350",
    ("eta", 2): "d951becc86f763dc680f8332151c6b94b1c4f708b8a674d0819e5b027acd44c3",
    ("eta", 3): "deb220ef9aded4c30262c03643e4a77e25fbe9627bac6f983a994a20f3bb9469",
    ("eta", 4): "5a992fbc86e930203f2ae963a5228e68ea3b524df1bc7c844eb2d90d0bf66658",
    ("etaTilde", 1): "84a16c4625295c85109e78ddcfc198d16776c14918bcf02d71a69c93899a1c81",
    ("etaTilde", 3): "510efde468bf5a94433b2b362d0d9046790b6252909cb5c7dd40e6b025e3cd6b",
    ("etaInf", 2): "909abcbc8967befdcd5721b464561e2e9d974df351497b20c9f8dd1f9d5fdf0f",
    ("delta", 1): "e729511dd1c2fad4b1659f48f08015f88124c5977100609a73bcf7e8919ddb97",
    ("delta", 3): "e637c9cea80cb333ec8b4d3f59732c2e4def26e9a8744b3c3659374d3c77495b",
    ("sq", 1): "6c672aa4790c8a0e2769dcc4f4d60dba7a191cda989fe0f6ad9537452826e018",
    ("sq", 2): "78e750603fe691ba2ed242166a5ed39597298ed668724628843c45bf12a5be95",
    ("sq", 3): "7c492b259e75d331279035a345739724fb4bb26235906f3e8edca719742889a8",
    ("sq", 4): "184ca2be8e7b93b6b10e6e73878c5846d78b363b9ec9a1934f14d120e90b552f",
    ("sl", 0): "15d6126db621b3ddb66b6fec886eae2dce6f0e81375c81c1c9135975f7db13de",
    ("sl", 2): "792536c4c3c7c7f324f3d3fbe958794f09d010bace3e0bfe63a7a4316e5e334b",
    ("sl", 4): "175a10c93152f6377022b319ed6fc880fa8386e623eb299029c869323ee2b6c5",
    ("p", 1): "5863040709e8c514a77faad47e82eacc5f4755085e72faa47bb7787f1f32de5c",
    ("p", 2): "2b5ebdbb8157da54939457b8ed36751ca974632b24aa1b7e69eb39482bb6a29a",
    ("p", 3): "b8454da4034d3ae4ad6936857dceb5300bef4982deb77deb0f4bdfa1df146bfd",
    ("p", 4): "0cd197ef409fe7c19c77181a36747d7d182ecbd368fd5157beb7cb4376a1e09e",
    ("bracket", 0): "e9fe50087bd133e4e602968d19578e080387e83f555da64f9d5aeb6c678e88aa",
    ("bracket", 1): "e4c678ceffbecd1d2f960ca9b9e00d7c50af2d435be5533a31fece3350742d93",
    ("bracket", 2): "1f4ea604dc54f02263acedf9b1f67dc1750a1158033fce4042fd539546b5a547",
    ("bracket", 3): "fdda02aacfe8148151b73b6af9d85f5283bd568169d91ba47281fb926fd3a32d",
    ("bracket", 4): "afdf6357a2d997bc9bb4f6a8c7455e59470879dd5dc5075f6cfccf0982390ac3",
}


def test_map_json_covers_every_name():
    assert {(name, order) for name in cli.MAP_NAMES for order in range(5)
            if cli.REGISTRY["map"][name].defined(order, 2)} == set(MAP_JSON)


@pytest.mark.parametrize("name,order", MAP_JSON)
def test_map_json(capsys, name, order):
    # --max-order 7 admits sq at order 4, the largest tree order here
    argv = ["--max-order", "7", "map", name, "--order", str(order),
            "--labels", "2"]
    assert run_digest(capsys, argv) == MAP_JSON[name, order]


ELEMENTS = {
    ("etaP", 0, 2, "<1,2>"):
        "cffe57be7848824a4f9bfba4d11047682c88122dac9a99c9ec50ad63e8110fe9",
    ("delta", 1, 2, "<1,2>"):
        "66e8e0133986fa713bb85df9d39962847032168024d24f2168c0d67937d37856",
    ("eta", 0, 1, "inf:1"):
        "430c45d6885ea0f410f1564de9a8609b5275f3a10ce922f560255175664650e9",
    ("eta", 2, 2, "inf:(1,2)"):
        "fd4c444130594581117c3f083b49c98053cd557b8fd0edf920f8606ee554de1d",
    ("etaP", 2, 2, "<1,(1,(1,2))>"):
        "06d503c0741acb732ddac3ba8096bfab49d1eb233063fa22bbad34f5938444b9",
}


@pytest.mark.parametrize("name,order,labels,element", ELEMENTS)
def test_map_element(capsys, name, order, labels, element):
    argv = ["--max-order", "5", "map", name, "--order", str(order),
            "--labels", str(labels), "--element", element]
    assert run_digest(capsys, argv) == ELEMENTS[name, order, labels, element]


BRIDGE = {
    2: "56f52f6f821090da4c4548c8d558879c2ea5e350ef8bcaa62da7f6e2128828b4",
    4: "d3d884ff49268d1ff314cc1dea30a2674c1125b9dbaff55a13431ae558f0886f",
}


@pytest.mark.parametrize("order", BRIDGE)
def test_quadratic_bridge(capsys, order):
    argv = ["quadratic", "bridge", "--order", str(order)]
    assert run_digest(capsys, argv) == BRIDGE[order]
