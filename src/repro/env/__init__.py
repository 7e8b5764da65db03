"""The file I/O engine abstraction ("Env", after RocksDB's Env/FileSystem).

Everything the LSM-KVS persists goes through an :class:`Env`, which is the
seam where the paper's two designs plug in:

- the instance-level design (EncFS) *wraps* an Env and encrypts every byte
  transparently (Section 4);
- SHIELD keeps the Env plaintext-agnostic and embeds encryption in the
  engine's write path instead (Section 5);
- disaggregated storage is an Env whose bytes travel a simulated network
  link (:mod:`repro.dist`).

Implementations here: :class:`LocalEnv` (POSIX files), :class:`MemEnv`
(in-memory, with process/system crash simulation used by the recovery
tests) and :class:`MeteredEnv` (I/O statistics).
"""

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.env.metered import MeteredEnv, classify_path
from repro.env.aligned import AlignedReadEnv

__all__ = [
    "AlignedReadEnv",
    "Env",
    "WritableFile",
    "RandomAccessFile",
    "LocalEnv",
    "MemEnv",
    "MeteredEnv",
    "classify_path",
]
