"""Entry point for one socket-backend worker process.

Usage: python -m blockgp.transport.socket_worker PORT RANK D SEED

The process serves one `WorkerCore` over its connection to the master: a
reader thread puts each data or abort frame into the core's mailbox and
queues each command, and the main thread runs `WorkerCore.serve` on that
queue, writing every result back as a frame.
"""

import contextlib
import queue
import socket
import sys
import threading
import traceback

from ..grid import ProcessGrid
from .base import WorkerCore
from .wire import (decode_body, encode_control, encode_data, nodelay,
                   read_frame)


def main(argv=None):
    port, rank, D, seed = map(int, (argv or sys.argv[1:])[:4])
    grid = ProcessGrid(D)
    sock = nodelay(socket.create_connection(("127.0.0.1", port)))
    wlock = threading.Lock()

    def write(frame):
        with wlock:
            sock.sendall(frame)

    core = WorkerCore(rank, grid, seed,
                      send_fn=lambda dst, tag, payload:
                      write(encode_data(rank, dst, core.epoch, tag, payload)))
    core.abort_fn = lambda: write(encode_control(
        {"kind": "abort", "src": rank, "epoch": core.epoch}))
    write(encode_control({"kind": "hello", "rank": rank}))

    cmds = queue.SimpleQueue()

    def reader():
        try:
            while True:
                body = read_frame(sock)
                if body is None:
                    break
                decoded = decode_body(body)
                if decoded[0] == "data":
                    _, src, _dst, epoch, tag, payload = decoded
                    core.mailbox.put(src, tag, payload, epoch)
                else:
                    obj = decoded[1]
                    if obj["kind"] == "command":
                        cmds.put(obj["cmd"])
                    elif obj["kind"] == "abort":
                        core.mailbox.abort(obj["src"], obj["epoch"])
        except (ConnectionError, OSError):
            pass
        except Exception:
            # an undecodable frame leaves the stream unusable: drop the
            # connection so the master sees this rank as lost
            traceback.print_exc()
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        core.mailbox.close()  # ends a collective that waits for a message
        cmds.put(("shutdown",))

    def reply(result):
        # on a dropped connection the reader queues the shutdown
        with contextlib.suppress(OSError):
            write(encode_control({"kind": "result", "rank": rank,
                                  "value": result}))

    threading.Thread(target=reader, daemon=True).start()
    core.serve(cmds.get, reply)
    sock.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
