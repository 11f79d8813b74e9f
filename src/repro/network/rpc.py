"""One remote request/response protocol over logical endpoints.

BlueDBM's remote paths ride logical endpoints with deterministic
per-endpoint routing (Sections 3.2.1, 3.2.3): one endpoint carries
requests, and each reply comes back on one of several response
endpoints chosen by request id, so parallel serial lanes between a node
pair are all used.  :class:`RpcChannel` is that protocol, once: the
request-id counter, the pending-reply table, the reply-lane choice, a
per-node service loop handing each request to the owner's ``serve``
generator, and the response dispatchers that wake the waiting caller.

The owner decides what a request means; the channel only numbers,
routes and matches it.  A request's ``send`` step can go over the
integrated network (the default) or over any transport with the same
``send(src, dst, message, nbytes)`` shape, e.g. the host Ethernet; the
reply always returns over the integrated network.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Optional

from ..io import IORequest, StageSpan
from ..sim import Event, Simulator

__all__ = ["RpcChannel"]


class RpcChannel:
    """Request ids, pending replies and reply lanes for some nodes.

    ``serve(node, msg)`` is a DES generator run once per request that
    arrives on ``request_ep`` of any node in ``nodes``; it answers with
    :meth:`reply`.  Every request message carries ``req_id``,
    ``reply_ep``, ``requester`` and ``request`` (the traced
    :class:`~repro.io.IORequest`, or None) on top of the caller's
    fields.  With ``net_spans`` the channel charges its integrated-network
    sends and replies to that request's ``net`` stage.
    """

    def __init__(self, sim: Simulator, network, nodes: Iterable[int],
                 request_ep: int, response_eps: Iterable[int],
                 serve: Callable, net_spans: bool = False):
        self.sim = sim
        self.network = network
        self.request_ep = request_ep
        self.response_eps = tuple(response_eps)
        self.serve = serve
        self.net_spans = net_spans
        self._req_ids = itertools.count()
        self._pending: Dict[int, Event] = {}
        for node in nodes:
            sim.process(self._service(node), name=f"rpc-service-{node}")
            for ep in self.response_eps:
                sim.process(self._dispatch(node, ep),
                            name=f"rpc-resp-{node}-{ep}")

    def call(self, src: int, dst: int, message: dict, nbytes: int,
             request: Optional[IORequest] = None,
             send: Optional[Callable] = None):
        """Send ``message`` from ``src`` to ``dst``; wait for the reply
        (DES generator) -> the reply's data.

        ``send`` replaces the integrated-network request endpoint as the
        request's transport (e.g. ``EthernetFabric.send``).
        """
        req_id = next(self._req_ids)
        event = self.sim.event()
        self._pending[req_id] = event
        message = dict(
            message, req_id=req_id, requester=src, request=request,
            reply_ep=self.response_eps[req_id % len(self.response_eps)])
        if send is not None:
            yield from send(src, dst, message, nbytes)
        else:
            with StageSpan(self.sim, request if self.net_spans else None,
                           "net"):
                yield from self.network.endpoint(src, self.request_ep).send(
                    dst, message, nbytes)
        return (yield event)

    def reply(self, node: int, msg: dict, data, nbytes: int):
        """Answer request ``msg`` from ``node`` (DES generator)."""
        with StageSpan(self.sim, msg["request"] if self.net_spans else None,
                       "net"):
            yield from self.network.endpoint(node, msg["reply_ep"]).send(
                msg["requester"], {"req_id": msg["req_id"], "data": data},
                nbytes)

    def _service(self, node: int):
        endpoint = self.network.endpoint(node, self.request_ep)
        while True:
            message = yield from endpoint.receive()
            self.sim.process(self.serve(node, message.payload),
                             name=f"rpc-serve-{node}")

    def _dispatch(self, node: int, ep: int):
        endpoint = self.network.endpoint(node, ep)
        while True:
            reply = (yield from endpoint.receive()).payload
            event = self._pending.pop(reply["req_id"], None)
            if event is None:
                raise RuntimeError(
                    f"node {node} endpoint {ep}: reply to unknown "
                    f"request {reply['req_id']}")
            event.succeed(reply["data"])
