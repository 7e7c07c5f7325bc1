"""On-disk cache for differential matrices.

Files live under ``<cache_dir>/<fingerprint>/d_<n>.gf3mat`` in the
canonical GF3MAT v1 text format.  The fingerprint encodes engine version,
sign convention and a hash of the code of the modules that build the
matrices (their text without comments or blank lines, cut out by one
regular-expression pass that leaves string literals whole), so a stale
cache (also one written by an edited differential) is simply never found,
while a comment edit keeps it; a corrupted file is rebuilt with a
warning, never silently reused; each write has a temporary file of its own.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import re

from .gf3 import BlockDiagonalF3

log = logging.getLogger("cotor.cache")

ENGINE_VERSION = "1.0.0"

# the modules whose code determines the cached matrices, and where they are
CONSTRUCTION_SOURCES = ("dga.py", "differential.py")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


# what ``code_text`` drops: a line of only whitespace and maybe a comment,
# and a comment with the whitespace before it.  A string literal (group 1)
# is matched whole, so a "#" or a blank line in it stays.  ``re`` compiles
# this on the first digest, not at import.
_NOISE = (r'''("""[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""'''
          r"""|'''[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''"""
          r'''|"[^"\\\n]*(?:\\.[^"\\\n]*)*"'''
          r"""|'[^'\\\n]*(?:\\.[^'\\\n]*)*')"""
          r"|^[ \t]*(?:#[^\n]*)?\n"
          r"|[ \t]*#[^\n]*")


def code_text(source: str) -> str:
    """Python source without its comments and blank lines; string literals
    are left as they are."""
    return re.sub(_NOISE, r"\1", source, flags=re.MULTILINE | re.DOTALL)


@functools.cache
def construction_digest(source_dir: str) -> str:
    """sha256 of the construction modules' code, comments and blank lines
    left out (``code_text``), read once per process."""
    digest = hashlib.sha256()
    for name in CONSTRUCTION_SOURCES:
        with open(os.path.join(source_dir, name), encoding="utf-8") as fh:
            digest.update(code_text(fh.read()).encode() + b"\0")
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

    def load(self, degree: int, row_blocks: dict,
             col_blocks: dict) -> BlockDiagonalF3 | None:
        """d_degree, cut into the blocks, or None (a miss, or a refused file)."""
        path = self.path(degree)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return None
        try:
            return BlockDiagonalF3.deserialize(
                raw.decode("ascii"), row_blocks, col_blocks)
        except ValueError as exc:
            log.warning("corrupted cache file %s (%s); rebuilding", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, degree: int, matrix) -> str:
        os.makedirs(self.dir, exist_ok=True)
        path = self.path(degree)
        # a name no other writer picks; "x" keeps the umask's file mode
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        fh = open(tmp, "x", encoding="ascii")
        try:
            with fh:
                fh.write(matrix.serialize())
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
        return path
