"""Socket-backend worker with the probe installed.

Same arguments as `python -m blockgp.transport.socket_worker`
(PORT RANK D SEED); the traced run starts workers through this file so the
worker-side counters exist on the socket backend too.
"""

import sys

from blockgp.transport import socket_worker
from probe import Probe

if __name__ == "__main__":
    Probe().install()
    sys.exit(socket_worker.main(sys.argv[1:]))
