"""Newline-delimited JSON framing for the coloring service.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.
Requests are objects with an ``op`` field (plus op-specific parameters
and an optional client-chosen ``id`` echoed back verbatim); responses
always carry ``ok`` (bool) and, on failure, ``error`` (message) and
``code`` (the raising exception class name).  Lines are capped at
:data:`MAX_LINE` bytes so a confused client cannot buffer the server
into the ground.
"""

import asyncio
import json

from repro.common.exceptions import ServiceError

__all__ = [
    "MAX_LINE", "decode_message", "encode_message", "error_response",
    "reuse_read_buffer",
]

#: Upper bound on one framed line (requests and responses).  Generous
#: enough for ~1M-edge feed blocks; beyond that, send more blocks.
MAX_LINE = 64 * 1024 * 1024

#: Bytes one socket read may return: asyncio's own read size.
READ_BUFFER = 256 * 1024


def encode_message(message: dict) -> bytes:
    """Frame one message (compact JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one framed line; :class:`ServiceError` on malformed input."""
    if len(line) > MAX_LINE:
        raise ServiceError(f"message exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed JSON message: {error}") from None
    if not isinstance(message, dict):
        raise ServiceError("message must be a JSON object")
    return message


def error_response(error: Exception, request: dict | None = None) -> dict:
    """The uniform failure envelope for one request.

    Errors relayed from a pool worker carry the original exception class
    name in ``remote_code`` so clients see e.g. ``GuaranteeViolationError``
    rather than the dispatcher-side wrapper.  Load-shedding errors add
    ``busy: true`` and a ``retry_after`` hint (seconds) so clients can
    back off and retry instead of failing.
    """
    response = {
        "ok": False,
        "error": str(error),
        "code": getattr(error, "remote_code", type(error).__name__),
    }
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        response["busy"] = True
        response["retry_after"] = float(retry_after)
    if request and "id" in request:
        response["id"] = request["id"]
    return response


class _BufferedReads(asyncio.BufferedProtocol):
    """Feeds a stream's protocol from one reusable receive buffer.

    A plain asyncio protocol receives every read as a fresh 256 KiB
    ``bytes`` object shrunk to the bytes received.  Whether glibc serves
    that from a free block or from the top of the heap, trimming the heap
    again right after, depends on the process's allocation history; in
    the second case every short message costs fresh page faults (about
    15% of a suspended session's time on a 2-CPU host).  Reading into
    one buffer allocates only the bytes received.
    """

    def __init__(self, protocol):
        self._protocol = protocol
        self._buffer = memoryview(bytearray(READ_BUFFER))

    def get_buffer(self, sizehint):
        return self._buffer

    def buffer_updated(self, nbytes):
        self._protocol.data_received(bytes(self._buffer[:nbytes]))

    def eof_received(self):
        return self._protocol.eof_received()

    def connection_lost(self, exc):
        self._protocol.connection_lost(exc)

    def pause_writing(self):
        self._protocol.pause_writing()

    def resume_writing(self):
        self._protocol.resume_writing()


def reuse_read_buffer(writer: asyncio.StreamWriter) -> None:
    """Make the stream behind ``writer`` read into one reusable buffer."""
    transport = writer.transport
    transport.set_protocol(_BufferedReads(transport.get_protocol()))
