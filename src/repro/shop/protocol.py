"""Service message encodings and the latency-charging transport.

The prototype exchanges XML service specifications over sockets
(Section 4.1).  This module provides:

* :func:`service_request_to_xml` / :func:`service_request_from_xml` —
  one envelope for all four services (create carries the full request
  body of :mod:`repro.core.dagxml`; query/destroy/estimate are small);
* :class:`Transport` — the messaging substrate: every call charges a
  (jittered) round-trip latency in the simulation clock, composing
  naturally with synchronous handlers and process-generator handlers.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple, Union

from repro.core.dagxml import (
    BODY_SERVICES,
    escape_attrib,
    parse_xml,
    reject_children,
    request_from_element,
    request_to_xml,
    require_attribute,
)
from repro.core.errors import ProtocolError
from repro.core.spec import CreateRequest, DestroyRequest, QueryRequest
from repro.sim.kernel import Environment
from repro.sim.rng import RngHub

__all__ = [
    "Transport",
    "service_request_to_xml",
    "service_request_from_xml",
]

ServiceRequest = Union[CreateRequest, QueryRequest, DestroyRequest]


def service_request_to_xml(
    request: ServiceRequest, service: Optional[str] = None
) -> str:
    """Encode any service request as an XML string.

    ``service`` overrides the envelope's service name — used to wrap a
    :class:`CreateRequest` body in an *estimate* request for bidding.
    """
    esc = escape_attrib
    if isinstance(request, CreateRequest):
        return request_to_xml(request, service or "create")
    if isinstance(request, QueryRequest):
        head = f'<vmplant-request service="query" vmid="{esc(request.vmid)}"'
        if not request.attributes:
            return head + " />"
        attributes = "".join(
            f'<attribute name="{esc(attr)}" />'
            for attr in request.attributes
        )
        return f"{head}>{attributes}</vmplant-request>"
    if isinstance(request, DestroyRequest):
        commit = "true" if request.commit else "false"
        text = (
            f'<vmplant-request service="destroy" vmid="{esc(request.vmid)}"'
            f' commit="{commit}"'
        )
        if request.publish_as is not None:
            text += f' publish-as="{esc(request.publish_as)}"'
        return text + " />"
    raise ProtocolError(
        f"unsupported request type {type(request).__name__}"
    )


def service_request_from_xml(text: str) -> Tuple[str, ServiceRequest]:
    """Decode an envelope; returns ``(service, request)``.

    The text is parsed once; create and estimate bodies are decoded
    from that root by the strict request decoder.
    """
    root = parse_xml(text)
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    service = root.get("service")
    if service in BODY_SERVICES:
        return service, request_from_element(root, service)
    if service == "query":
        vmid = root.get("vmid")
        if vmid is None:
            raise ProtocolError("query request missing vmid")
        for el in root:
            if el.tag != "attribute":
                raise ProtocolError(
                    f"unexpected element <{el.tag}> in query request"
                )
        attributes = tuple(require_attribute(el, "name") for el in root)
        return service, QueryRequest(vmid=vmid, attributes=attributes)
    if service == "destroy":
        vmid = root.get("vmid")
        if vmid is None:
            raise ProtocolError("destroy request missing vmid")
        reject_children(root)
        commit = root.get("commit", "false")
        if commit not in ("true", "false"):
            raise ProtocolError(
                f"destroy commit must be \"true\" or \"false\", got {commit!r}"
            )
        return service, DestroyRequest(
            vmid=vmid,
            commit=commit == "true",
            publish_as=root.get("publish-as"),
        )
    raise ProtocolError(f"unknown service {service!r}")


class Transport:
    """Message substrate charging round-trip latency per call."""

    def __init__(
        self,
        env: Environment,
        rng: Optional[RngHub] = None,
        latency_s: float = 0.05,
        jitter_sigma: float = 0.2,
    ):
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.rng = rng or RngHub(0)
        self.latency_s = latency_s
        self.jitter_sigma = jitter_sigma
        self.calls = 0

    def _one_way(self) -> float:
        if self.latency_s == 0:
            return 0.0
        return self.latency_s * self.rng.lognormal(
            "transport", 0.0, self.jitter_sigma
        )

    def call(self, handler: Callable[[], Any]) -> Generator:
        """Invoke ``handler`` remotely: latency → handler → latency.

        ``handler()`` may return a plain value or a process generator
        (which is then driven to completion); the transport returns
        its result.
        """
        self.calls += 1
        yield self.env.timeout(self._one_way())
        result = handler()
        if hasattr(result, "send") and hasattr(result, "throw"):
            result = yield from result
        yield self.env.timeout(self._one_way())
        return result
