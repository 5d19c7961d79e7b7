"""Worker process of `strokedet.shards`: runs its rows of each model call.

    python -m strokedet.shard_worker ARENA_FD

Requests arrive as pickles on stdin and each gets one `(ok, value)` pickle
on the original stdout; fd 1 is pointed at stderr so that nothing else
writes into the reply stream. The worker exits at EOF on stdin. The first
reply is `(True, strokedet.__file__)`, and the caller refuses a worker that
imports other sources than its own. Each forward request's `Model` replaces
the last one; a training call's keeps its layer caches for the backward one.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

import strokedet
from strokedet.architectures import Model
from strokedet.shards import Arena, send


def _portable(exc: BaseException) -> BaseException:
    """`exc` if it survives pickling, else a StrokedetError naming it."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return strokedet.StrokedetError(f"shard worker: {type(exc).__name__}: {exc}")


class Worker:
    def __init__(self, fd: int):
        self.arena = Arena(fd)
        self.model = None

    def forward(self, lo, hi, spec, params, xref, pref, batch_size):
        arena = self.arena
        self.model = Model(spec, {name: arena.array(ref) for name, ref in params.items()})
        arena.array(pref)[lo:hi] = self.model.forward(arena.array(xref)[lo:hi], batch_size)

    def backward(self, lo, hi, gref, reds):
        arena = self.arena
        outs = [{name: arena.array(ref)[lo:hi] for name, ref in red.items()} for red in reds]
        self.model.backward(arena.array(gref)[lo:hi], outs)

    def reduce(self, tasks):
        arena = self.arena
        for i, red, grads in tasks:
            layer = self.model.layers[i]
            layer.reduce({name: arena.array(ref) for name, ref in red.items()})
            for name, ref in grads.items():
                arena.array(ref)[...] = layer.grads[name]

    def handle(self, message):
        op, size, *args = message
        self.arena.attach(size)
        return getattr(self, op)(*args)


def main() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    worker = Worker(int(sys.argv[1]))
    send(replies, (True, strokedet.__file__))
    while True:
        try:
            message = pickle.load(requests)
        except EOFError:
            break
        try:
            reply = (True, worker.handle(message))
        except Exception as exc:
            reply = (False, _portable(exc))
        send(replies, reply)
    replies.close()


if __name__ == "__main__":
    main()
