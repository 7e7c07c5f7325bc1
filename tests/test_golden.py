"""Golden reports: the sha256 of stdout and the exit code of fast commands.

A refactor that should leave every report byte-identical is checked by
this file instead of by hand.  A hash changes only when a report does; if
that is intended, print the new hashes with ``golden_hashes()`` and say in
the change why the report moved.
"""

import contextlib
import hashlib
import io
import tempfile

import pytest

from cotor.cli import main

# stands for a fresh temporary directory in an argv
CACHE = "<cache-dir>"

GOLDEN = (
    (("audit",), 0,
     "46b9fc8480b8a019a2d8b60b5eb08917036f1fc4bbab8864eea52257e0bad096"),
    (("table40",), 0,
     "02d0801ebe6c5accc30c3d3b4817df4c8b32f4de69873bbd5efb9005594da8ef"),
    (("verify", "--format", "json"), 0,
     "5db4f9131a0ebf7829cedbf7ab358a4c1a5838cb5dc771a94bc806e46d941184"),
    (("verify",), 0,
     "bdb0dfc38b64e78d53cd01cd3f3dd24fc797ce9d70aaa4eb804d4747452cbf1c"),
    (("verify", "--group", "i", "--format", "json"), 0,
     "0d04f9ab74f1b94ca372b4018d556cdc6224856c67c9d142043f4c51c6820683"),
    (("verify", "--group", "ii", "--format", "json"), 0,
     "0df1013bb4dd197d15980554059bd8d3de9135e22cc5b084b033a93711216599"),
    (("verify", "--group", "iii", "--format", "json"), 0,
     "3eb9fca55b5c3ec3b0e7f8a3e29470a71ea89a79eec57aea0941a7accbd9961b"),
    (("discover", "--support", "a4*y26,a8*y22,a10*y20", "--degree", "30"), 0,
     "bdc7374aed1e038d7e7d7c10dd4e96006b4e09f06965c2a70f3ccdfd4b7c948f"),
    (("discover", "--support", "a9*a4", "--degree", "13"), 0,
     "47b368a778bde41449bbe4c004077f027c69c95138deec7aa94ebe27af11590b"),
    # the top of the key range: a4's field at 255
    (("discover", "--support", "a4^255", "--degree", "1020"), 0,
     "b6d777bc1dc87bbc5356037154237b1fb82d1d5e7a6be6be87813922e487881d"),
    (("homology", "--max-degree", "60", "--check-basis"), 0,
     "7ceafbdaa394dc3b8109e27f44a52c49fc8b88bfe3df23ed5e48dd57f7ee5cde"),
    (("spectral", "--scheme", "weight_s3", "--max-degree", "40"), 0,
     "504f2a55e68bf7358446e43d478fb8d3a1ee62b40f8199771f832785de5392d0"),
    (("spectral", "--scheme", "may_s5", "--max-degree", "40"), 0,
     "a900850b657e1026b87b8d01c4bfd9a9a3b025e58db2bbffb326d917f1ca860d"),
    (("spectral", "--page", "4", "--format", "csv"), 0,
     "b76a37aa9a61604b1c150418b22e2ad778201195f9e9d2e3c50ad3c9f10d9660"),
    (("ideal-check", "--max-degree", "40"), 0,
     "4239696dc009119d8f3a6757c6ddd703fa57c73a1116a8c771575ad357852eb2"),
    # the benchmark's own ideal-check
    (("ideal-check", "--max-degree", "80", "--format", "json"), 0,
     "ac71af966878cb71f0c1389a97a8374f84cea6fb33a4b41400c44050fcd91a6c"),
    # with a fresh cache directory: the same report as without one
    (("verify", "--format", "json", "--cache-dir", CACHE), 0,
     "5db4f9131a0ebf7829cedbf7ab358a4c1a5838cb5dc771a94bc806e46d941184"),
    (("poincare",), 0,
     "39bad7dd528eeb61fc8487995f1b2fe8dacff130d7f0fb336e81e2da2cc7ebe2"),
    (("diff", "--max-degree", "40"), 0,
     "381e922996c363163ff1b169defe5dfb6e13529db7326ce91ddefc8e8612af22"),
)


def run(argv) -> tuple:
    """(exit code, sha256 of stdout) of one in-process CLI call, each
    ``CACHE`` in argv a fresh temporary directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            tempfile.TemporaryDirectory() as cache:
        code = main([cache if a == CACHE else a for a in argv])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def golden_hashes() -> list:
    """The current (argv, exit code, sha256) of every golden command."""
    return [(argv, *run(argv)) for argv, _, _ in GOLDEN]


@pytest.mark.parametrize("argv,code,sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_report_is_byte_identical(monkeypatch, argv, code, sha):
    monkeypatch.delenv("COTOR_CACHE_DIR", raising=False)
    assert run(argv) == (code, sha)
