"""SHA-256 from the interpreter's own module rather than OpenSSL's.

``hashlib`` loads its ``_hashlib`` extension, which maps OpenSSL's
libcrypto: about 3.6 MB resident per process on Python 3.10-3.13.  The
built-in ``_sha2`` (3.12+) or ``_sha256`` (3.10-3.11) maps a small
fraction of that, and ``random.py`` takes its SHA-512 the same way;
``hashlib`` is the fallback for an interpreter built without them.  The
digest is SHA-256 either way, so derived seeds, task-spec hashes and
cache keys do not depend on which module provides it.

Each site that hashes imports :data:`sha256` inside the function that
hashes, so a command that never hashes loads none of this.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
