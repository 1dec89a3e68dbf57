"""Golden output: the stdout bytes of verify, sweep and complexity at small
q must not change under refactors. The digests were taken from the code
before the masked-sum and semiprimitive-helper consolidation."""

import hashlib

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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
