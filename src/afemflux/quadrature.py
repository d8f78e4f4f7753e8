"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are conical products (Gauss-Jacobi in one direction,
Gauss-Legendre in the other, composed through the Duffy map), so the rule
built for degree d integrates every bivariate polynomial of total degree <= d
exactly.  Weights are positive and normalised to sum to one: the integral of
f over a physical triangle T is approximated by

    area(T) * sum_i w_i * f(x_i)

with the points x_i mapped affinely from the reference triangle
conv{(0,0), (1,0), (0,1)}.  Edge rules follow the same convention on [0, 1]:
the integral over an edge E is length(E) * sum_i w_i * f(x_i).

The 1-D rules behind both, Gauss-Jacobi(1, 0) and Gauss-Legendre with
n = 1..16 points, are tabulated below as ``float.hex`` literals: exactly the
nodes and weights that ``scipy.special.roots_jacobi(n, 1.0, 0.0)`` and
``roots_legendre(n)`` return (scipy 1.17.1), so degrees 0..31 are
supported.  The guaranteed bound rests on patch systems that are compatible
in floating point because every element integral uses the same rules as the
assembly, so the rules must not move by a bit; a table also spares each
process the import of ``scipy.special``.  Computing them in numpy instead
(``np.polynomial.legendre.leggauss``) moves weights by up to 2.3e-15.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# 2 * 16 - 1: the tables at the end of the module hold n = 1..16 points
_MAX_DEGREE = 31


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight rule on the reference triangle.

    points : (nq, 2) reference coordinates (xi, eta)
    bary   : (nq, 3) barycentric coordinates (1-xi-eta, xi, eta)
    weights: (nq,) positive, summing to one
    degree : total polynomial degree integrated exactly
    """

    points: np.ndarray
    bary: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def n_points(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class EdgeRule:
    """Gauss-Legendre rule on [0, 1] with weights summing to one; it hashes
    by identity, so that tables of a rule can be cached on it."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def n_points(self) -> int:
        return self.weights.size


def _n_points(degree: int) -> int:
    """Gauss points per direction of the rule exact for degree <= degree."""
    if not 0 <= degree <= _MAX_DEGREE:
        raise ValueError(f"quadrature degree must be in 0..{_MAX_DEGREE}, got {degree}")
    return (degree + 2) // 2  # ceil((degree+1)/2)


def _gauss(table, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule of a hex table, as float64."""
    nodes, weights = table[n - 1]
    return (np.array([float.fromhex(h) for h in nodes]),
            np.array([float.fromhex(h) for h in weights]))


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Conical-product rule exact for total degree <= degree <= 31."""
    n = _n_points(degree)
    # xi direction carries the Jacobi weight (1-xi) coming from the Duffy map.
    xj, wj = _gauss(_GAUSS_JACOBI, n)
    xi = 0.5 * (xj + 1.0)
    wxi = 0.25 * wj
    xl, wl = _gauss(_GAUSS_LEGENDRE, n)
    s = 0.5 * (xl + 1.0)
    ws = 0.5 * wl
    # x = xi, y = s * (1 - xi); weight already includes the Jacobian (1 - xi).
    X = np.repeat(xi, n)
    Y = np.tile(s, n) * (1.0 - X)
    W = (wxi[:, None] * ws[None, :]).ravel()
    W = W / W.sum()  # reference-area normalisation (exact sum is 1/2)
    pts = np.column_stack([X, Y])
    bary = np.column_stack([1.0 - X - Y, X, Y])
    pts.flags.writeable = False
    bary.flags.writeable = False
    W.flags.writeable = False
    return QuadratureRule(points=pts, bary=bary, weights=W, degree=2 * n - 1)


@lru_cache(maxsize=None)
def edge_rule(degree: int) -> EdgeRule:
    """Gauss-Legendre rule on [0, 1] exact for degree <= degree <= 31."""
    n = _n_points(degree)
    x, w = _gauss(_GAUSS_LEGENDRE, n)
    pts = 0.5 * (x + 1.0)
    wts = 0.5 * w
    wts = wts / wts.sum()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return EdgeRule(points=pts, weights=wts, degree=2 * n - 1)


# Nodes (ascending) and weights on [-1, 1], n = 1..16, as float.hex literals.
# Gauss-Jacobi for the weight (1 - x), bit for bit roots_jacobi(n, 1.0, 0.0):
_GAUSS_JACOBI = (
    (  # n = 1
        ("-0x1.5555555555555p-2",),
        ("0x1.0000000000000p+1",),
    ),
    (  # n = 2
        ("-0x1.613a4dcd41a8cp-1", "0x1.28db0200e9b81p-2"),
        ("0x1.45aca3d575cb5p+0", "0x1.74a6b85514696p-1"),
    ),
    (  # n = 3
        ("-0x1.a54932ac4b548p-1", "-0x1.72d2df86e6ed9p-3", "0x1.269033b297591p-1"),
        ("0x1.9b8230f1da299p-1", "0x1.d57c5c75b4cc5p-1", "0x1.1e02e530e2142p-2"),
    ),
    (  # n = 4
        ("-0x1.c5867a44e5259p-1", "-0x1.c90687b262aa5p-2", "0x1.5662ebd487287p-3",
         "0x1.70e2ca456677bp-1"),
        ("0x1.1584a60c8fa8ep-1", "0x1.a0b2080bfdb5fp-1", "0x1.09ed82d38b97fp-1",
         "0x1.fede789f384abp-4"),
    ),
    (  # n = 5
        ("-0x1.d73c15b79f3d3p-1", "-0x1.353bf8784132fp-1", "-0x1.fc1c403080601p-4",
         "0x1.904f92acb8e03p-2", "0x1.9b199e53f1236p-1"),
        ("0x1.8c6ada4e0dafap-2", "0x1.565fa81ab0087p-1", "0x1.2bccf0d0b5846p-1",
         "0x1.2ebb113d8a0aep-2", "0x1.02038a7674af7p-4"),
    ),
    (  # n = 6
        ("-0x1.e1fadfe073df9p-1", "-0x1.685e1564bedb5p-1", "-0x1.4ddaf87feb03cp-2",
         "0x1.e0a317ca931cap-4", "0x1.13b20aa194564p-1", "0x1.b5313efdf2be1p-1"),
        ("0x1.282ee09a10673p-2", "0x1.15974e069ecf0p-1", "0x1.2057d8b053386p-1",
         "0x1.941db707609b1p-2", "0x1.6814a9d0f3514p-3", "0x1.1e5630418a367p-5"),
    ),
    (  # n = 7
        ("-0x1.e8fb29e9a5764p-1", "-0x1.8a9193048cf9bp-1", "-0x1.dfa995dc3e923p-2",
         "-0x1.8248525f48019p-4", "0x1.2dd317a1e6c75p-2", "0x1.476efbee5396cp-1",
         "0x1.c6631b7a04cfep-1"),
        ("0x1.ca7c117182fd3p-3", "0x1.c4a55b1d5c43ep-2", "0x1.04e584cdadba0p-1",
         "0x1.b6c8c5dbee193p-2", "0x1.0fe9664463035p-2", "0x1.c10efaf07bac4p-4",
         "0x1.55ba7b216c22ap-6"),
    ),
    (  # n = 8
        ("-0x1.edcb1a17aa69cp-1", "-0x1.a27c106adee1ap-1", "-0x1.248c5166f60afp-1",
         "-0x1.06486de6465c7p-2", "0x1.722b58ae4088ep-4", "0x1.b49538c30d5edp-2",
         "0x1.6c2b407d6ea60p-1", "0x1.d24b79f6f42d2p-1"),
        ("0x1.6cf5cef7c9bf5p-3", "0x1.753938a8fca06p-2", "0x1.ccd2e195679abp-2",
         "0x1.b25eb749abef7p-2", "0x1.4466cc9ad01d5p-2", "0x1.743d28e734a5fp-3",
         "0x1.24568ed7e20e6p-4", "0x1.afe846f5003fbp-7"),
    ),
    (  # n = 9
        ("-0x1.f13ddf8f9b284p-1", "-0x1.b3d3cac7db562p-1", "-0x1.4ba81345ff092p-1",
         "-0x1.85cd00fca2779p-2", "-0x1.3789d97462c11p-4", "0x1.e3cee5c1c38f9p-3",
         "0x1.0d2179fb6c65bp-1", "0x1.87164ddf01ec5p-1", "0x1.dadf3b5dc4bd3p-1"),
        ("0x1.29307cd64afe0p-3", "0x1.3799a35c31523p-2", "0x1.93981e02ec6dep-2",
         "0x1.9add68efc7908p-2", "0x1.59881c9782906p-2", "0x1.de6c2efae1a3bp-3",
         "0x1.048b8b8518205p-3", "0x1.8b2ea5ff1330cp-5", "0x1.1dd915d26afd1p-7"),
    ),
    (  # n = 10
        ("-0x1.f3cbde803ee0ep-1", "-0x1.c0c94ec8b17ccp-1", "-0x1.695b9dbba9d7dp-1",
         "-0x1.e9251da413eabp-2", "-0x1.af8e20bed564ap-3", "0x1.2cf6c6a7d03a8p-4",
         "0x1.685591e68241cp-2", "0x1.3433d17a8e2dep-1", "0x1.9b5a200c0298bp-1",
         "0x1.e14011c3be583p-1"),
        ("0x1.ed267ca5b0fdep-4", "0x1.0751f7a2b5e69p-2", "0x1.611f19b49a33ep-2",
         "0x1.7bafbcec95f4ep-2", "0x1.5a588e4c43201p-2", "0x1.0e8dab7584542p-2",
         "0x1.638c651349d9ap-3", "0x1.75238f5e2d7b1p-4", "0x1.13e25f8fad621p-5",
         "0x1.88fd9f7011580p-8"),
    ),
    (  # n = 11
        ("-0x1.f5bdc494383ecp-1", "-0x1.cab737fcb4618p-1", "-0x1.8063d15e34ff9p-1",
         "-0x1.1bcfac021a8d2p-1", "-0x1.47a9cd8b11047p-2", "-0x1.050444b81667ap-4",
         "0x1.9371e23584676p-3", "0x1.c712840d5d23ap-2", "0x1.52c3c3325477ep-1",
         "0x1.aaf723a825316p-1", "0x1.e61eac0bc3b80p-1"),
        ("0x1.9f9e56a91778ap-4", "0x1.c20d87170d1dap-3", "0x1.35bd5e153db6ap-2",
         "0x1.5ac3d6c95c874p-2", "0x1.4f607658f3e91p-2", "0x1.1ccd749d57dcfp-2",
         "0x1.a6a2ecdaff402p-3", "0x1.0b6648f40e80ep-3", "0x1.11044d70803dep-4",
         "0x1.8c182add6817ep-6", "0x1.16d580f407917p-8"),
    ),
    (  # n = 12
        ("-0x1.f74189b858059p-1", "-0x1.d27ca0594c726p-1", "-0x1.9294bc80e621ap-1",
         "-0x1.3b3cc1039c057p-1", "-0x1.a30f58d1d44a1p-2", "-0x1.6e6847eb4c14fp-3",
         "0x1.fb1945653f17cp-5", "0x1.3261d363358acp-2", "0x1.09d44a925ae5cp-1",
         "0x1.6b0fd270bc6cbp-1", "0x1.b73c99233b8fcp-1", "0x1.e9eba26f793a5p-1"),
        ("0x1.62f5033ed0f34p-4", "0x1.84876a259ba3bp-3", "0x1.10d23d7a26756p-2",
         "0x1.3af7ee9af2d10p-2", "0x1.3e3e7e3be0b5ep-2", "0x1.1f2af8a6f186ap-2",
         "0x1.cfc7d5e808aacp-3", "0x1.4b614437b0a15p-3", "0x1.9794c79267868p-4",
         "0x1.9780ce54ce1b3p-5", "0x1.234b801e911fdp-6", "0x1.966b324c88602p-9"),
    ),
    (  # n = 13
        ("-0x1.f87566a2c935ap-1", "-0x1.d8ae28878b120p-1", "-0x1.a12eb7a89ba93p-1",
         "-0x1.54bc269f66be9p-1", "-0x1.ee56c7f58b50cp-2", "-0x1.1a5ada9e8b444p-2",
         "-0x1.c12d6b60c5d3cp-5", "0x1.59e1e9fd0f643p-3", "0x1.896c3fff50f48p-2",
         "0x1.291eec8c8e4bep-1", "0x1.7ea9daf0c984ap-1", "0x1.c10c8e4955bd2p-1",
         "0x1.ecf1678ba50d9p-1"),
        ("0x1.329f460745cb9p-4", "0x1.527eed7705da2p-3", "0x1.e2f35e6fd0922p-3",
         "0x1.1d8bdea5ccfa8p-2", "0x1.2a647180f1853p-2", "0x1.19de5009b23f4p-2",
         "0x1.e450a2b891de0p-3", "0x1.78cc24b83e89fp-3", "0x1.05a04c0cd4ca7p-3",
         "0x1.3acd2d698cc42p-4", "0x1.359f52cfa5100p-5", "0x1.b590bf9bd6b30p-7",
         "0x1.2f117524bad69p-9"),
    ),
    (  # n = 14
        ("-0x1.f96de278fe8e5p-1", "-0x1.ddb1cecca8e57p-1", "-0x1.ad12231da9c35p-1",
         "-0x1.69abfc19a98ddp-1", "-0x1.167113b351548p-1", "-0x1.6e0914738252dp-2",
         "-0x1.3e47f5196a537p-3", "0x1.b612b80143609p-5", "0x1.0a50acdea5f25p-2",
         "0x1.d2480839d4547p-2", "0x1.42f587219d5f9p-1", "0x1.8eafe19b401a2p-1",
         "0x1.c90393338063ap-1", "0x1.ef62c66445deap-1"),
        ("0x1.0b7f5ef76273bp-4", "0x1.2956648714010p-3", "0x1.ada322e325042p-3",
         "0x1.02eba9585e066p-2", "0x1.15d6a67a2247fp-2", "0x1.0ff16cea4c31ap-2",
         "0x1.e9c36798cb933p-3", "0x1.95a9d2b62c5e1p-3", "0x1.32bbdd5812fc0p-3",
         "0x1.a089be1e6156dp-4", "0x1.ec941a7b5ae8cp-5", "0x1.de2eb0ba59b16p-6",
         "0x1.4ec56b42a193ap-7", "0x1.cd12bffa8f675p-10"),
    ),
    (  # n = 15
        ("-0x1.fa3953c55838fp-1", "-0x1.e1cf646dfc173p-1", "-0x1.b6df85d7703e0p-1",
         "-0x1.7b0d935cf6f98p-1", "-0x1.30a5bd3d880dap-1", "-0x1.b507de4583d25p-2",
         "-0x1.efddfc512755bp-3", "-0x1.8a29459787c74p-5", "0x1.2ea66699f8350p-3",
         "0x1.5a24a37972277p-2", "0x1.07d943ede351dp-1", "0x1.58815b94a6defp-1",
         "0x1.9bf10b7c227a5p-1", "0x1.cf90b23db9b37p-1", "0x1.f163591a4b58dp-1"),
        ("0x1.d6c7b715119eep-5", "0x1.071e84ea22aa8p-3", "0x1.8022e5807f58ap-3",
         "0x1.d6360fcc322e7p-3", "0x1.01b66aa61c87ep-2", "0x1.0374f37d1676bp-2",
         "0x1.e4c146753cf66p-3", "0x1.a52b89d7ab44bp-3", "0x1.5327a274b7eefp-3",
         "0x1.f582add3f7759p-4", "0x1.4e80352861105p-4", "0x1.86139621582a9p-5",
         "0x1.76af133593cbcp-6", "0x1.0456fa1935cd7p-7", "0x1.64dff68c8dd8dp-10"),
    ),
    (  # n = 16
        ("-0x1.fae1fce580ceap-1", "-0x1.e53aa27ef18bap-1", "-0x1.bf0bf54ca6faap-1",
         "-0x1.89a0902c81045p-1", "-0x1.46c9de35d7377p-1", "-0x1.f19cfa405abdap-2",
         "-0x1.44ac769464c46p-2", "-0x1.194ba5249c25ap-3", "0x1.81953caac6886p-5",
         "0x1.d6dd4f7c0363bp-3", "0x1.9eade813d22acp-2", "0x1.21eae0f8280acp-1",
         "0x1.6aa330cbd7991p-1", "0x1.a705e1dbb9030p-1", "0x1.d5045a5b00097p-1",
         "0x1.f30cab94c85bbp-1"),
        ("0x1.a1711552cb2bbp-5", "0x1.d4c95308834b6p-4", "0x1.591fd220a5cd0p-3",
         "0x1.abdb4d1c319b4p-3", "0x1.dd37ff11bfc76p-3", "0x1.eb86e9af3f68fp-3",
         "0x1.d8d5438912fbcp-3", "0x1.aa82692aacbd1p-3", "0x1.686d32b398ea4p-3",
         "0x1.1bd5bce2bf333p-3", "0x1.9c3578d89f699p-4", "0x1.0efc0b7966a27p-4",
         "0x1.386a65a12debbp-5", "0x1.297baea5bca23p-6", "0x1.9ad43cf68a5e9p-8",
         "0x1.187cc8b15c1a9p-10"),
    ),
)

# Gauss-Legendre, bit for bit roots_legendre(n):
_GAUSS_LEGENDRE = (
    (  # n = 1
        ("0x0.0p+0",),
        ("0x1.0000000000000p+1",),
    ),
    (  # n = 2
        ("-0x1.279a74590331cp-1", "0x1.279a74590331cp-1"),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    (  # n = 3
        ("-0x1.8c97ef43f7248p-1", "0x0.0p+0", "0x1.8c97ef43f7248p-1"),
        ("0x1.1c71c71c71c74p-1", "0x1.c71c71c71c717p-1", "0x1.1c71c71c71c74p-1"),
    ),
    (  # n = 4
        ("-0x1.b8e6dbcf63985p-1", "-0x1.5c23fd9dd3dfdp-2", "0x1.5c23fd9dd3dfdp-2",
         "0x1.b8e6dbcf63985p-1"),
        ("0x1.64340f7e7b66ap-2", "0x1.4de5f840c24cbp-1", "0x1.4de5f840c24cbp-1",
         "0x1.64340f7e7b66ap-2"),
    ),
    (  # n = 5
        ("-0x1.cff6ce0533a69p-1", "-0x1.13b23fd99b705p-1", "0x0.0p+0",
         "0x1.13b23fd99b705p-1", "0x1.cff6ce0533a69p-1"),
        ("0x1.e539ec36e0388p-3", "0x1.ea1da25ae415cp-2", "0x1.23456789abce0p-1",
         "0x1.ea1da25ae415cp-2", "0x1.e539ec36e0388p-3"),
    ),
    (  # n = 6
        ("-0x1.dd6ca4e80a01ep-1", "-0x1.528a09655c95ep-1", "-0x1.e8b12d03675c6p-3",
         "0x1.e8b12d03675c6p-3", "0x1.528a09655c95ep-1", "0x1.dd6ca4e80a01ep-1"),
        ("0x1.5edf601e2dbf1p-3", "0x1.716b7b5794c1bp-2", "0x1.df24d499545ebp-2",
         "0x1.df24d499545ebp-2", "0x1.716b7b5794c1bp-2", "0x1.5edf601e2dbf1p-3"),
    ),
    (  # n = 7
        ("-0x1.e5f178e7c6228p-1", "-0x1.7ba9f9be3a1d6p-1", "-0x1.9f95df119fd62p-2",
         "0x0.0p+0", "0x1.9f95df119fd62p-2", "0x1.7ba9f9be3a1d6p-1",
         "0x1.e5f178e7c6228p-1"),
        ("0x1.092f69f826d5fp-3", "0x1.1e6b1713d8643p-2", "0x1.86fe74ee32b3ap-2",
         "0x1.abfd7e03c2fa1p-2", "0x1.86fe74ee32b3ap-2", "0x1.1e6b1713d8643p-2",
         "0x1.092f69f826d5fp-3"),
    ),
    (  # n = 8
        ("-0x1.ebab1cb0acc67p-1", "-0x1.97e4ab249f41ep-1", "-0x1.0d129583284b4p-1",
         "-0x1.77ac94f3c7346p-3", "0x1.77ac94f3c7346p-3", "0x1.0d129583284b4p-1",
         "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc67p-1"),
        ("0x1.9ea1d04ca0346p-4", "0x1.c76fb531d2b9fp-3", "0x1.413c50a25561bp-2",
         "0x1.736360b199344p-2", "0x1.736360b199344p-2", "0x1.413c50a25561bp-2",
         "0x1.c76fb531d2b9fp-3", "0x1.9ea1d04ca0346p-4"),
    ),
    (  # n = 9
        ("-0x1.efb2b2ebf2106p-1", "-0x1.ac0c44f0d0298p-1", "-0x1.3a0bd2077fd8cp-1",
         "-0x1.4c0916e48aa66p-2", "0x0.0p+0", "0x1.4c0916e48aa66p-2",
         "0x1.3a0bd2077fd8cp-1", "0x1.ac0c44f0d0298p-1", "0x1.efb2b2ebf2106p-1"),
        ("0x1.4ce65f803eee4p-4", "0x1.71f7a9b222bf1p-3", "0x1.0add87c827507p-2",
         "0x1.3fd7e9838d510p-2", "0x1.522a43f654867p-2", "0x1.3fd7e9838d510p-2",
         "0x1.0add87c827507p-2", "0x1.71f7a9b222bf1p-3", "0x1.4ce65f803eee4p-4"),
    ),
    (  # n = 10
        ("-0x1.f2a3e062af2d8p-1", "-0x1.bae995e9cb2f2p-1", "-0x1.5bdb9228de198p-1",
         "-0x1.bbcc009016adcp-2", "-0x1.30e507891e278p-3", "0x1.30e507891e278p-3",
         "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f2p-1",
         "0x1.f2a3e062af2d8p-1"),
        ("0x1.1115f8b62dbd7p-4", "0x1.32138c878efe3p-3", "0x1.c0b059d00bc38p-3",
         "0x1.13baa7a559c05p-2", "0x1.2e9de7014d6f7p-2", "0x1.2e9de7014d6f7p-2",
         "0x1.13baa7a559c05p-2", "0x1.c0b059d00bc38p-3", "0x1.32138c878efe3p-3",
         "0x1.1115f8b62dbd7p-4"),
    ),
    (  # n = 11
        ("-0x1.f4da62fd7e9b5p-1", "-0x1.c62d11af04753p-1", "-0x1.75d67bd21944ap-1",
         "-0x1.09c6f7c4d8ce2p-1", "-0x1.14031efeb42c1p-2", "0x0.0p+0",
         "0x1.14031efeb42c1p-2", "0x1.09c6f7c4d8ce2p-1", "0x1.75d67bd21944ap-1",
         "0x1.c62d11af04753p-1", "0x1.f4da62fd7e9b5p-1"),
        ("0x1.c8097265bb982p-5", "0x1.013047def88b3p-3", "0x1.7d85b8dbff1a2p-3",
         "0x1.dd94b1446e05bp-3", "0x1.0d1ca26fa590ep-2", "0x1.1779ac87e04d5p-2",
         "0x1.0d1ca26fa590ep-2", "0x1.dd94b1446e05bp-3", "0x1.7d85b8dbff1a2p-3",
         "0x1.013047def88b3p-3", "0x1.c8097265bb982p-5"),
    ),
    (  # n = 12
        ("-0x1.f68f1d8e42e81p-1", "-0x1.cee874ffb88b4p-1", "-0x1.8a30aeed88f36p-1",
         "-0x1.2cb4f05c077f9p-1", "-0x1.78a8d20a8b19cp-2", "-0x1.007a5f8f630e6p-3",
         "0x1.007a5f8f630e6p-3", "0x1.78a8d20a8b19cp-2", "0x1.2cb4f05c077f9p-1",
         "0x1.8a30aeed88f36p-1", "0x1.cee874ffb88b4p-1", "0x1.f68f1d8e42e81p-1"),
        ("0x1.8275d9dea6e53p-5", "0x1.b60602bce6155p-4", "0x1.47d7258f22d8ap-3",
         "0x1.a0163e6b1ab6bp-3", "0x1.de3155c256ab1p-3", "0x1.fe40ce6d4f01fp-3",
         "0x1.fe40ce6d4f01fp-3", "0x1.de3155c256ab1p-3", "0x1.a0163e6b1ab6bp-3",
         "0x1.47d7258f22d8ap-3", "0x1.b60602bce6155p-4", "0x1.8275d9dea6e53p-5"),
    ),
    (  # n = 13
        ("-0x1.f7e6d7629661cp-1", "-0x1.d5cf75170c9dep-1", "-0x1.9a687189c7850p-1",
         "-0x1.48e2033b01c62p-1", "-0x1.cb41af08c747bp-2", "-0x1.d7fa8790f2c4ap-3",
         "0x0.0p+0", "0x1.d7fa8790f2c4ap-3", "0x1.cb41af08c747bp-2",
         "0x1.48e2033b01c62p-1", "0x1.9a687189c7850p-1", "0x1.d5cf75170c9dep-1",
         "0x1.f7e6d7629661cp-1"),
        ("0x1.4ba51c8f4cee5p-5", "0x1.795464d0fbf14p-4", "0x1.1c69b70565ce2p-3",
         "0x1.6cd7ccca4a8ccp-3", "0x1.a99b75be0a126p-3", "0x1.cf6d8e56e981ep-3",
         "0x1.dc43fd1e15b92p-3", "0x1.cf6d8e56e981ep-3", "0x1.a99b75be0a126p-3",
         "0x1.6cd7ccca4a8ccp-3", "0x1.1c69b70565ce2p-3", "0x1.795464d0fbf14p-4",
         "0x1.4ba51c8f4cee5p-5"),
    ),
    (  # n = 14
        ("-0x1.f8fa30fddab0ap-1", "-0x1.db5bd12b99e9fp-1", "-0x1.a786ee46dd9c4p-1",
         "-0x1.5fe4db09e0c89p-1", "-0x1.07ceab54ef096p-1", "-0x1.46c564912d702p-2",
         "-0x1.ba97d36de76adp-4", "0x1.ba97d36de76adp-4", "0x1.46c564912d702p-2",
         "0x1.07ceab54ef096p-1", "0x1.5fe4db09e0c89p-1", "0x1.a786ee46dd9c4p-1",
         "0x1.db5bd12b99e9fp-1", "0x1.f8fa30fddab0ap-1"),
        ("0x1.1fb2d8b27f5eap-5", "0x1.4853d8adc700cp-4", "0x1.f1bd74ef611b0p-4",
         "0x1.41f3bbee2d2f7p-3", "0x1.7bfb8e2a8f57dp-3", "0x1.a43f1796fab06p-3",
         "0x1.b8dc415514e2cp-3", "0x1.b8dc415514e2cp-3", "0x1.a43f1796fab06p-3",
         "0x1.7bfb8e2a8f57dp-3", "0x1.41f3bbee2d2f7p-3", "0x1.f1bd74ef611b0p-4",
         "0x1.4853d8adc700cp-4", "0x1.1fb2d8b27f5eap-5"),
    ),
    (  # n = 15
        ("-0x1.f9da27c32e6d0p-1", "-0x1.dfe24c4f8b448p-1", "-0x1.b248221fffd63p-1",
         "-0x1.72e6e181ab3c4p-1", "-0x1.245676f08f3a4p-1", "-0x1.939c69257d6b6p-2",
         "-0x1.9c0ba62ef04b6p-3", "0x0.0p+0", "0x1.9c0ba62ef04b6p-3",
         "0x1.939c69257d6b6p-2", "0x1.245676f08f3a4p-1", "0x1.72e6e181ab3c4p-1",
         "0x1.b248221fffd63p-1", "0x1.dfe24c4f8b448p-1", "0x1.f9da27c32e6d0p-1"),
        ("0x1.f7dc7227a2a1ap-6", "0x1.2038260b5cfe0p-4", "0x1.b6ec9635f1139p-4",
         "0x1.1dd73b4963161p-3", "0x1.5484f30a86ed8p-3", "0x1.7d41fa76dc268p-3",
         "0x1.96633f1fd02d0p-3", "0x1.9ee1575f9c983p-3", "0x1.96633f1fd02d0p-3",
         "0x1.7d41fa76dc268p-3", "0x1.5484f30a86ed8p-3", "0x1.1dd73b4963161p-3",
         "0x1.b6ec9635f1139p-4", "0x1.2038260b5cfe0p-4", "0x1.f7dc7227a2a1ap-6"),
    ),
    (  # n = 16
        ("-0x1.fa92c264d787ep-1", "-0x1.e39f56616f9b0p-1", "-0x1.bb3403514e483p-1",
         "-0x1.82c45dda4726bp-1", "-0x1.3c5a466d5e8b8p-1", "-0x1.d50259a43a773p-2",
         "-0x1.205cae642337cp-2", "-0x1.852bd6676a9fap-4", "0x1.852bd6676a9fap-4",
         "0x1.205cae642337cp-2", "0x1.d50259a43a773p-2", "0x1.3c5a466d5e8b8p-1",
         "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1",
         "0x1.fa92c264d787ep-1"),
        ("0x1.bcddab4b7c4bcp-6", "0x1.fdfb1a2c12637p-5", "0x1.85c4ee79cc236p-4",
         "0x1.fe7af2bad3858p-4", "0x1.325f61bca3cb2p-3", "0x1.5a6ebbb5a75edp-3",
         "0x1.75f8c77e0c004p-3", "0x1.83feae80e4deep-3", "0x1.83feae80e4deep-3",
         "0x1.75f8c77e0c004p-3", "0x1.5a6ebbb5a75edp-3", "0x1.325f61bca3cb2p-3",
         "0x1.fe7af2bad3858p-4", "0x1.85c4ee79cc236p-4", "0x1.fdfb1a2c12637p-5",
         "0x1.bcddab4b7c4bcp-6"),
    ),
)
