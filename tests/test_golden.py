"""Golden output: the stdout bytes of verify, sweep and complexity at small
q must not change under refactors. The first four digests were taken from
the code before the masked-sum and semiprimitive-helper consolidation, the
next ones (parallel verify, JSON sweep, header-only tables, the --output
file) before verify and sweep moved onto one streaming field runner and
writer, and the last three (a 2-adic depth-4 verify, Jacobi sums at the
sparse conductor 256 = X^128 + 1 and the dense conductor 4098) before
reduction modulo Phi_N became sparse long division. The 3^5 verify was
taken before each Galois orbit was evaluated once: there the 110 units
mod k = 121 form one orbit, so a wrong copy to the orbit's members shows
at once. The 128-field sweep up to q = 640 (the benchmark's sweep workload)
and complexity at q = 4099 were taken before Berlekamp-Massey and the
autocorrelation moved onto popcount kernels. The last two were taken
before membership in 2^c P O_L read its generator off the element's own
ring: at q = 449 (u = 6) the twist level reaches 6 at k = 7, where Phi_7
splits mod 2, and at q = 337 the order k = 21 is one where 2 does not
generate the units mod k. The ternary generate and semiprimitive gauss
outputs were taken before the library surface that no command reaches was
deleted; they hold integers only, so no float formatting enters them.
The whole-field verify at q = 4099 was taken before membership in 2^c P O_L
was read straight from exponent counts modulo 2^(c+1): its conductor 4098
has a dense Phi_4098 (911 nonzero terms), the case the sparse fold was
slowest on. The binary generate and the complexity at q = 81 (a minimal
polynomial read off a sequence over an extension field) and the Jacobi sum
over GF(3^5) (where 1 - x is formed digit by digit) were taken before the
GF(2)[X] wrapper was dropped and the field's 1 - alpha^n table became a
Zech-logarithm table. The verify up to q = 181 (the benchmark's verify-wide
workload) was taken before records became named tuples written by one
%-format per line. The Jacobi sums over GF(65521) and GF(16381) were taken
before CycInt reduced modulo Phi_N through one Kronecker fold instead of
sparse long division: their conductors 65,520 and 16,380 have dense
Phi_N, and folding the exponent counts is almost the whole run. The
binary generate over GF(3^10), GF(37^3) and GF(251^2) and the sweep up to
q = 1024 were taken before the power tables were walked by one
multiply-by-alpha step, Berlekamp-Massey read one packed doubled period and
every autocorrelation lag came from one integer product: 3^10 is the
largest field with m > 1, so its digest pins the canonical alpha and the
whole power and Zech tables; 37^3 and 251^2 pin a wide prime digit at m = 3
and m = 2; and the sweep reaches T = 1022 with the m > 1 fields 729 and
961. The verify at q = 769 (u = 8) was taken before the criteria route
kept its count vectors packed into one int each: it reaches twist level 8,
with 256 K sums at that level, where thm2's subset sums add 3^7 rows, so a
wrong slot width, rotation or bias in the packed vectors shows there.
The CSV and two-worker verify up to q = 181, and its summary, were taken
before each Galois orbit's verdicts became one block shared by its
members, rendered once and stamped with each member's e: they pin the CSV
line, the blocks as they come back pickled from a worker, and the summary
counted block by block, on the benchmark's verify-wide workload.
The whole-field verify at q = 4093 was taken before props 3 and 4 became
rotations of the packed level-2 K sums: q = 5 mod 8 there, so it runs that
branch of both closed forms at the large conductor 4 k = 4092.
The whole-field verifies at q = 2689 (u = 7) and q = 5953 (u = 6) were
taken before every Galois orbit tested one shared set of K sums against
its own conjugate prime over 2: k = 7 and 21 have two orbits at q = 2689,
and k = 31 and 93 six at q = 5953, so a wrong conjugate prime shows at
deep twist levels there.
The complexity runs at q = 65521 and q = 40961 were taken before the
ground truth and thm1 read every (orbit, t) off one superset-summed table
per sequence instead of looping over the sequence: at 65521, T' = 4095 has
23 divisors k > 1, so the multiplicity profile folds 4,095-bit masks at
every one of them, and at 40961, u = 13 is the deepest superset transform
the size cap allows.
The whole-field verify at q = 7681 (u = 9) was taken before the CycInt
ring operators that no command or check reached were deleted: it is the
first pin to reach twist level 9, with 512 K sums of conductor 2^9 k at
that level.
The verify at q = 449 of necessary, prop2 and thm2 alone, given in that
order, was taken before the checks were evaluated one twist level at a
time, each once per (sequence, k): it pins a partial check list, named out
of order, at a field that reaches twist level 6.
The binary generate over GF(3^7), the ternary generate over GF(7^2) and
the semiprimitive gauss runs over GF(3^4), GF(3^6) and GF(5^6) were taken
before GF(p^m) was built on one code path for every m: they pin the
alpha search and the power walk at m = 7, a d = 3 sequence over an
extension field, and the traces at m = 4 and 6 that the numeric sign of a
semiprimitive Gauss sum reads. All five print integers only.
The binary JSON generate at q = 5 and q = 13 was taken before the
sequence type dropped its alphabet size and generate built its JSON
document itself. The generic and quadratic gauss runs over the prime
fields GF(7) and GF(5) were taken before the trace lost its m = 1 branch:
they read the trace at m = 1, where it is the code itself. Their floats
are formatted by json's repr, which is the same on every run.
"""

import hashlib
import json

import pytest

from slce.cli import main

GOLDEN = [
    (("verify", "--qmax", "128"),
     "536209a568da8a1903e6f5b24c296352f23a1d6140ec8fa3395b9a0969a3de90"),
    (("verify", "--qmax", "49", "--format", "csv"),
     "23074b8f4fdb69d04eb3577edbcb814b801d379668816ecb439f60d047440e00"),
    (("sweep", "--qmax", "128"),
     "53a8c93ebc0d0529a653d5f295c641434847ca2e355e71194dc6e99b89d265f0"),
    (("complexity", "--p", "127"),
     "ca1613d9f786bd2a0d479dd5dd4b8fa7a8ac00d576b4cf643bfac26abf3da930"),
    (("verify", "--qmax", "128", "--jobs", "2"),
     "536209a568da8a1903e6f5b24c296352f23a1d6140ec8fa3395b9a0969a3de90"),
    (("sweep", "--qmax", "128", "--format", "json"),
     "3d31c43afcfb19b09ecba9fd9e4a622ac09ba12c8e3b1caa9019ed08a828e658"),
    (("sweep", "--qmax", "2"),  # header only
     "7f6f04410031d4a1f9e13dd83bd7af4f50244270f08c0dd65c7403be2e4a619c"),
    (("verify", "--qmax", "2", "--format", "csv"),  # header only
     "f42f1edbda20e4d228231497813416fc9ea3cdfd5e034c8f7912d177745472d3"),
    (("verify", "--p", "5", "--qmax", "625", "--jobs", "1"),
     "87428f85fbf9067044c21c111762f21ef0b63b955f633e410af3508655fd850a"),
    (("jacobi", "--p", "257", "--a1", "1", "--a2", "1"),
     "d9783c5ad77afc1e54a71165d22d26ba2e92bfc36beb0f9a02a1fc568d8c7edb"),
    (("jacobi", "--p", "4099", "--a1", "1", "--a2", "1"),
     "ed9a6268b9b8a3a3fcd1854e470d9de49b5f3cbe964641b406fe600ecb4309f8"),
    (("verify", "--p", "3", "--qmax", "243", "--jobs", "1"),
     "94bd2e2de027e36b7d8aaad9aa99b8e0a86aea9d343bd45d2ad1032ab6b60417"),
    (("sweep", "--qmax", "640"),
     "97f1b7c85fe1ace1f20dd994e6882b7443b2e64259eefc19ca2e72521ec4625c"),
    (("complexity", "--p", "4099"),
     "095fdcb44040f8dc8313ceeb90db68c22854b96e3924797b21966ec0b99d028f"),
    (("verify", "--p", "449", "--qmax", "449", "--jobs", "1"),
     "90ca44dda4857c2a8d1073c73cb1e8b90851bfce83132fd727498d8d7eacdcda"),
    (("verify", "--p", "337", "--qmax", "337", "--jobs", "1"),
     "e228b6a0f142fb71b1f8e5f65e7948bdc406345f4d15dbc3a3a33f6fb1f18337"),
    (("generate", "--p", "13", "--d", "3", "--format", "json"),
     "cccd28312560e51bc24721812a3a1e4148ebaca2493c7b60e5f303511c6ad770"),
    (("generate", "--p", "7", "--d", "3"),
     "7c28be9df174f95fd1d600961140e88f031e7f1c99b1faa23c50fc3bb3c006ac"),
    (("gauss", "--p", "5", "--m", "2", "--semiprimitive", "3"),
     "504da63d34b5ae51ec172fb0e53b07eff7f488aedeb1ceca51b0a639274b655d"),
    (("gauss", "--p", "7", "--m", "2", "--semiprimitive", "8"),
     "07e19294323086f26f1304954d78ab18ac4ef3b43881402973b3e4bc89a67a2c"),
    (("verify", "--p", "4099", "--qmax", "4099", "--jobs", "1"),
     "a3348d4bfc46b261a84c695aaa3acc44a3b267c04f42797369afd60334e118da"),
    (("generate", "--p", "3", "--m", "4"),
     "c477f13670e6449140001e751cf9339a8fe08f58df7d444407cd9a6494d51cfe"),
    (("complexity", "--p", "3", "--m", "4"),
     "4f53e277fc700ba684c140219cc449ec511b1367bddb5a97e4c795a34e44fbaf"),
    (("jacobi", "--p", "3", "--m", "5", "--a1", "1", "--a2", "2"),
     "26b11adecb65d534ff707fecaab0954c1032b25e7b2092e44fceae9042148adc"),
    (("verify", "--qmax", "181", "--jobs", "1"),
     "c18b501cc27e14ab998c7312f8620d826ba6e82c3709ce0ee14fa5b16e6c4c23"),
    (("jacobi", "--p", "65521", "--a1", "1", "--a2", "1"),
     "427779e516bba8c472fee272f4145f7485ffeaf4036a5509743ebf0cce7cd7dd"),
    (("jacobi", "--p", "16381", "--a1", "1", "--a2", "1"),
     "ca5ce9e907f67402b2da0995f4622e2549b1e5dea7da9a590a087af17d9667d5"),
    (("generate", "--p", "3", "--m", "10"),
     "f4911739860d5b7efa90bb1bb08b6d3de63869d0c5454b66fd54e5befa989ad5"),
    (("generate", "--p", "37", "--m", "3"),
     "876f0f6a8be85f73d1787b3a2b6e3d552553055f0776f76b87fe0a3546827922"),
    (("generate", "--p", "251", "--m", "2"),
     "ea1067fade9bb52a3d4f57f64893530d7b799e4b2d32f5a08cc75a88c08afe58"),
    (("sweep", "--qmax", "1024"),
     "eb3bbd5b33cc7d40c5bed893a60e615676ab909e5c6793bb82e2864bc36c3c29"),
    (("verify", "--p", "769", "--qmax", "769", "--jobs", "1"),
     "9e45e0f5353bff9b8d471339cad6acbc957483876cea8e3bbe4163024eec858b"),
    (("verify", "--qmax", "181", "--format", "csv"),
     "532553cdacfe06cd0b3484e374dc664b840c5a3313f3715a57c64996cc7e35cf"),
    (("verify", "--qmax", "181", "--jobs", "2"),
     "c18b501cc27e14ab998c7312f8620d826ba6e82c3709ce0ee14fa5b16e6c4c23"),
    (("verify", "--p", "4093", "--qmax", "4093", "--jobs", "1"),
     "68a17d1a4dbbef6c74f26c1e3c6f4b480aa3eebd1e3c1048fa998a331a4be869"),
    (("verify", "--p", "2689", "--qmax", "2689", "--jobs", "1"),
     "09c19777a5f5e3f790dffc441e7036e600fa5e8b49811b609d73e4ffbd54047b"),
    (("verify", "--p", "5953", "--qmax", "5953", "--jobs", "1"),
     "b299d7fb213cf03f638c03a986e0fcde257b61de79e653026cb9e6562d50c3dd"),
    (("complexity", "--p", "65521"),
     "72be8e0f0a4285aab9b2913093234d398a9364f944bfdce56f92d8c9d5adae45"),
    (("complexity", "--p", "40961"),
     "8fb55547a59c151d3daa268768e31d58708db0eaa3d6b1b594d17dbbeb4e88cd"),
    (("verify", "--p", "7681", "--qmax", "7681", "--jobs", "1"),
     "6e58c2a5641ab2b425722e79f100deb074e844c8e5c9fd2f1773c5f58c0d95a6"),
    (("verify", "--p", "449", "--qmax", "449", "--theorems", "necessary,prop2,thm2",
      "--jobs", "1"),
     "5eeae7411b0157148b5068225393c2b8e5e1e4f58a88089009656949bc016e19"),
    (("generate", "--p", "3", "--m", "7"),
     "28813ce297ed248ec37165c0bda651c7c40313dad1838f1a9073b9694366c234"),
    (("generate", "--p", "7", "--m", "2", "--d", "3"),
     "1547d92b7f5c9edb1aeeb109a7b55b490d3e99b829796bfcca9d4d5153c560d3"),
    (("gauss", "--p", "3", "--m", "4", "--semiprimitive", "5"),
     "9133c997faec23784549dfbc3e362d53db3d3f11887eb7bdb6111f6e49e08424"),
    (("gauss", "--p", "3", "--m", "6", "--semiprimitive", "7"),
     "c3f84a8291d95c0fba18f50fd3b7f225ef85c2da5eda0e959f798c4fb2434aa7"),
    (("gauss", "--p", "5", "--m", "6", "--semiprimitive", "3"),
     "64871b21ea0e503fcaa49672436db2d504d64cb91f61fa9c7325956d22f41ce7"),
    (("generate", "--p", "5", "--format", "json"),
     "79ee5498aa07a7f7a37cd5e2368e58e870ffe724d394831553ad0b55427d49d8"),
    (("generate", "--p", "13", "--format", "json"),
     "bac3f6106087ef02879389614e01821066768b7d078eb2af051316c0325b84e5"),
    (("gauss", "--p", "7", "--m", "1", "--a", "2"),
     "962680131deb331b22a4eeca8304eae036c59d34dfd09d69edbd991326706589"),
    (("gauss", "--p", "5", "--m", "1", "--quadratic"),
     "33f7061cffb2ad4fb4f0b140edab640da5c33422f39c214f3a23de1bb16acb11"),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == digest


def test_output_file_digest(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    assert main(["verify", "--qmax", "49", "--output", str(path)]) == 0
    assert _sha256(path.read_bytes()) == (
        "ffe5ca2235e920e06d3f617fb9cabb9c1c9c9994746310be32c77d1f21bbb6e6"
    )
    out = capsys.readouterr().out
    assert json.loads(out) == {"summary": {"checks": 1236, "contexts": 116, "mismatches": 0}}


def test_verify_wide_summary(capsys):
    assert main(["verify", "--qmax", "181"]) == 0
    assert capsys.readouterr().err == (
        '{"summary": {"checks": 14192, "contexts": 1254, "mismatches": 0}}\n'
    )
