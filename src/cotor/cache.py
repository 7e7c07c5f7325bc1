"""On-disk cache for differential matrices.

Files live under ``<cache_dir>/<fingerprint>/d_<n>.gf3mat`` in the
canonical GF3MAT v1 text format.  The fingerprint encodes engine version,
sign convention and a hash of the code of the modules that build the
matrices (their tokens, without comments or blank lines), so a stale
cache (also one written by an edited differential) is simply never found,
while a comment edit keeps it; a corrupted file is rebuilt with a
warning, never silently reused.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import tokenize

from .gf3 import SparseMatrixF3

log = logging.getLogger("cotor.cache")

ENGINE_VERSION = "1.0.0"

# the modules whose code determines the cached matrices, and where they are
CONSTRUCTION_SOURCES = ("dga.py", "differential.py")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


@functools.cache
def construction_digest(source_dir: str) -> str:
    """sha256 of the construction modules' tokens, comments and blank lines
    left out, read once per process."""
    digest = hashlib.sha256()
    for name in CONSTRUCTION_SOURCES:
        with open(os.path.join(source_dir, name), "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type not in (tokenize.COMMENT, tokenize.NL):
                    digest.update(tok.string.encode() + b"\0")
    return digest.hexdigest()


def fingerprint(convention: str) -> str:
    code = construction_digest(SOURCE_DIR)
    digest = hashlib.sha256(
        f"cotor/{ENGINE_VERSION}/leibniz={convention}/code={code}".encode())
    return digest.hexdigest()[:12]


class MatrixCache:
    def __init__(self, root: str | os.PathLike, convention: str):
        self.root = os.fspath(root)
        self.fingerprint = fingerprint(convention)
        self.dir = os.path.join(self.root, self.fingerprint)

    def path(self, degree: int) -> str:
        return os.path.join(self.dir, f"d_{degree}.gf3mat")

    def load(self, degree: int) -> SparseMatrixF3 | None:
        path = self.path(degree)
        try:
            with open(path, "r", encoding="ascii") as fh:
                return SparseMatrixF3.deserialize(fh.read())
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            log.warning("corrupted cache file %s (%s); rebuilding", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, degree: int, matrix) -> str:
        os.makedirs(self.dir, exist_ok=True)
        path = self.path(degree)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(matrix.serialize())
        os.replace(tmp, path)
        return path
