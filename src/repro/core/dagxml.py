"""XML encodings of configuration DAGs and service requests.

The prototype's services are "specified as XML strings" (Section 4.1):
a Create-VM request carries the configuration DAG inline.  This module
round-trips :class:`~repro.core.dag.ConfigDAG` and
:class:`~repro.core.spec.CreateRequest` through the schema below::

    <vmplant-request service="create" client="..." vm-type="vmware">
      <hardware isa="x86" memory-mb="32" disk-gb="4.0" cpus="1"/>
      <network domain="acis.ufl.edu" proxy-host="..." proxy-port="..."
               credentials="..."/>
      <software os="linux-mandrake-8.1">
        <dag>
          <action name="install-vnc" scope="guest"
                  command="rpm -i {pkg}" on-error="retry" retries="2">
            <param key="pkg" value="'vnc-server.rpm'"/>
            <output name="vnc_port"/>
          </action>
          <edge from="install-redhat" to="install-vnc"/>
          <handler for="install-vnc">
            <dag>...</dag>
          </handler>
        </dag>
      </software>
    </vmplant-request>

Parsing is strict: unknown elements, missing attributes, malformed
numbers and malformed structure raise
:class:`~repro.core.errors.ProtocolError`.

Performance
-----------
Every ``VMShop.create`` goes through this codec, so it costs one string
build and one parse per request.  The encoders write the text directly
(escaping attribute values with ElementTree's own escaper, so the bytes
are exactly what ``ET.tostring`` would emit for the same element tree),
and the request decoder works on the already-parsed root.  Decoded
request DAGs are interned by the structure of their ``<dag>`` element:
every request carrying the same DAG shares one sealed (read-only)
:class:`~repro.core.dag.ConfigDAG`, whose memoized topological order,
fingerprint and matching tables then serve every create.  The public
DAG decoders (:func:`dag_from_xml`, :func:`dag_from_element`) still
return fresh, mutable DAGs.
"""

from __future__ import annotations

import ast
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.actions import Action, ActionScope, ErrorPolicy
from repro.core.dag import ConfigDAG
from repro.core.errors import DAGError, ProtocolError
from repro.core.spec import (
    CreateRequest,
    HardwareSpec,
    NetworkSpec,
    SoftwareSpec,
)

__all__ = [
    "dag_from_element",
    "dag_to_xml",
    "dag_from_xml",
    "parse_xml",
    "request_to_xml",
    "request_from_element",
    "request_from_xml",
]

#: ElementTree's attribute-value escaper; using it keeps the string
#: encoders byte-identical to ``ET.tostring``.
escape_attrib: Callable[[str], str] = ET._escape_attrib

#: Envelope services whose body is a full Create-VM request.
BODY_SERVICES = ("create", "estimate")

#: Bound on the interned request DAGs; the table is cleared when full.
#: A stream of distinct DAGs (In-VIGO workspaces, one per user) then
#: holds at most this many decoded DAGs past their requests, which
#: keeps the table out of the memory and garbage-collector budget.
_INTERN_LIMIT = 32

_interned: Dict[Tuple, ConfigDAG] = {}

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# ConfigDAG <-> XML
# ---------------------------------------------------------------------------


def dag_from_element(root: ET.Element) -> ConfigDAG:
    """Decode an ``<dag>`` element (strict) into a fresh, mutable DAG."""
    if root.tag != "dag":
        raise ProtocolError(f"expected <dag>, got <{root.tag}>")
    dag = ConfigDAG()
    handlers = []
    for child in root:
        if child.tag == "action":
            dag.add_action(_action_from_element(child))
        elif child.tag == "edge":
            pass  # second pass
        elif child.tag == "handler":
            handlers.append(child)
        else:
            raise ProtocolError(f"unexpected element <{child.tag}> in <dag>")
    try:
        for child in root:
            if child.tag == "edge":
                u = _require(child, "from")
                v = _require(child, "to")
                dag.add_edge(u, v)
        for child in handlers:
            target = _require(child, "for")
            inner = list(child)
            if len(inner) != 1:
                raise ProtocolError("<handler> must contain exactly one <dag>")
            dag.attach_handler(target, dag_from_element(inner[0]))
    except DAGError as exc:
        raise ProtocolError(str(exc)) from exc
    return dag


def _action_from_element(el: ET.Element) -> Action:
    name = _require(el, "name")
    scope = el.get("scope", ActionScope.GUEST.value)
    command = el.get("command", "")
    on_error = el.get("on-error", ErrorPolicy.FAIL.value)
    retries = _number(el, "retries", int, "0")
    params: Dict[str, object] = {}
    outputs = []
    for child in el:
        if child.tag == "param":
            key = _require(child, "key")
            rep = _require(child, "value")
            try:
                params[key] = ast.literal_eval(rep)
            except (ValueError, SyntaxError):
                params[key] = rep
        elif child.tag == "output":
            outputs.append(_require(child, "name"))
        else:
            raise ProtocolError(
                f"unexpected element <{child.tag}> in <action>"
            )
    try:
        return Action(
            name=name,
            scope=ActionScope(scope),
            command=command,
            params=params,
            outputs=tuple(outputs),
            on_error=ErrorPolicy(on_error),
            retries=retries,
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _require(el: ET.Element, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        raise ProtocolError(f"<{el.tag}> missing required attribute {attr!r}")
    return value


def _number(
    el: ET.Element,
    attr: str,
    convert: Callable[[str], _T],
    default: Optional[str] = None,
) -> Optional[_T]:
    """Numeric attribute ``attr`` of ``el``, or ``default`` converted.

    Returns None when the attribute is absent and ``default`` is None.
    """
    text = el.get(attr, default)
    if text is None:
        return None
    try:
        return convert(text)
    except ValueError:
        raise ProtocolError(
            f"<{el.tag}> attribute {attr!r}: bad number {text!r}"
        ) from None


def _no_children(el: ET.Element) -> None:
    for child in el:
        raise ProtocolError(
            f"unexpected element <{child.tag}> in <{el.tag}>"
        )


#: Public aliases: the warehouse reuses the strict action parser, the
#: service envelope decoder the attribute and child checks.
action_from_element = _action_from_element
require_attribute = _require
reject_children = _no_children


def _write_dag(dag: ConfigDAG, out: List[str]) -> None:
    """Append ``dag`` as a ``<dag>`` element's text to ``out``."""
    esc = escape_attrib
    actions = dag.actions
    if not actions:
        out.append("<dag />")
        return
    out.append("<dag>")
    for name, action in actions.items():
        out.append(
            f'<action name="{esc(name)}" scope="{esc(action.scope.value)}"'
            f' command="{esc(action.command)}"'
            f' on-error="{esc(action.on_error.value)}"'
            f' retries="{esc(str(action.retries))}"'
        )
        if not (action.params or action.outputs):
            out.append(" />")
            continue
        out.append(">")
        for key, value in action.params:
            out.append(f'<param key="{esc(key)}" value="{esc(value)}" />')
        for output in action.outputs:
            out.append(f'<output name="{esc(output)}" />')
        out.append("</action>")
    for u, v in dag.edges():
        out.append(f'<edge from="{esc(u)}" to="{esc(v)}" />')
    for name, handler in dag.handlers.items():
        out.append(f'<handler for="{esc(name)}">')
        _write_dag(handler, out)
        out.append("</handler>")
    out.append("</dag>")


def dag_to_xml(dag: ConfigDAG) -> str:
    """DAG as an XML string."""
    out: List[str] = []
    _write_dag(dag, out)
    return "".join(out)


def parse_xml(text: str) -> ET.Element:
    """Parse ``text`` into its root element (malformed → ProtocolError)."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc


def dag_from_xml(text: str) -> ConfigDAG:
    """Parse a DAG from an XML string (a fresh, mutable DAG)."""
    return dag_from_element(parse_xml(text))


# ---------------------------------------------------------------------------
# CreateRequest <-> XML
# ---------------------------------------------------------------------------


def request_to_xml(request: CreateRequest, service: str = "create") -> str:
    """Encode a Create-VM request as an XML string.

    ``service`` names the envelope's service: ``"estimate"`` wraps the
    same body in a bid request.
    """
    esc = escape_attrib
    out = [
        f'<vmplant-request service="{esc(service)}"'
        f' client="{esc(request.client_id)}"'
    ]
    if request.vm_type is not None:
        out.append(f' vm-type="{esc(request.vm_type)}"')
    if request.requirements is not None:
        out.append(f' requirements="{esc(request.requirements)}"')
    if request.lease_s is not None:
        out.append(f' lease-s="{esc(repr(request.lease_s))}"')
    hw = request.hardware
    out.append(
        f'><hardware isa="{esc(hw.isa)}"'
        f' memory-mb="{esc(str(hw.memory_mb))}"'
        f' disk-gb="{esc(repr(hw.disk_gb))}" cpus="{esc(str(hw.cpus))}" />'
    )
    net = request.network
    out.append(f'<network domain="{esc(net.domain)}"')
    if net.proxy_host is not None:
        out.append(f' proxy-host="{esc(net.proxy_host)}"')
    if net.proxy_port is not None:
        out.append(f' proxy-port="{esc(str(net.proxy_port))}"')
    if net.credentials:
        out.append(f' credentials="{esc(net.credentials)}"')
    out.append(f' /><software os="{esc(request.software.os)}">')
    _write_dag(request.software.dag, out)
    out.append("</software></vmplant-request>")
    return "".join(out)


def request_from_xml(text: str) -> CreateRequest:
    """Parse a Create-VM request from an XML string (strict)."""
    return request_from_element(parse_xml(text), "create")


def request_from_element(
    root: ET.Element, service: str = "create"
) -> CreateRequest:
    """Decode a parsed ``<vmplant-request service=...>`` body (strict).

    ``service`` is the envelope service the caller expects
    (``"create"`` or ``"estimate"``).  The request's DAG is the shared,
    sealed object interned for its ``<dag>`` structure.
    """
    if root.tag != "vmplant-request":
        raise ProtocolError(f"expected <vmplant-request>, got <{root.tag}>")
    if service not in BODY_SERVICES:
        raise ProtocolError(f"service {service!r} carries no request body")
    if root.get("service") != service:
        raise ProtocolError(
            f"expected service=\"{service}\","
            f" got {root.get('service')!r}"
        )

    parts: Dict[str, ET.Element] = {}
    for child in root:
        if child.tag not in ("hardware", "network", "software"):
            raise ProtocolError(
                f"unexpected element <{child.tag}> in <vmplant-request>"
            )
        if child.tag in parts:
            raise ProtocolError(f"duplicate <{child.tag}>")
        parts[child.tag] = child

    hw_el = parts.get("hardware")
    if hw_el is None:
        raise ProtocolError("missing <hardware>")
    _no_children(hw_el)
    try:
        hardware = HardwareSpec(
            isa=hw_el.get("isa", "x86"),
            memory_mb=int(_require(hw_el, "memory-mb")),
            disk_gb=float(_require(hw_el, "disk-gb")),
            cpus=int(hw_el.get("cpus", "1")),
        )
    except ValueError as exc:
        raise ProtocolError(f"bad hardware spec: {exc}") from exc

    net_el = parts.get("network")
    if net_el is not None:
        _no_children(net_el)
        network = NetworkSpec(
            domain=net_el.get("domain", "local"),
            proxy_host=net_el.get("proxy-host"),
            proxy_port=_number(net_el, "proxy-port", int),
            credentials=net_el.get("credentials", ""),
        )
    else:
        network = NetworkSpec()

    sw_el = parts.get("software")
    if sw_el is None:
        raise ProtocolError("missing <software>")
    inner = list(sw_el)
    if len(inner) != 1 or inner[0].tag != "dag":
        raise ProtocolError("<software> must contain exactly one <dag>")
    software = SoftwareSpec(
        os=sw_el.get("os", "linux-mandrake-8.1"),
        dag=_interned_dag(inner[0]),
    )

    return CreateRequest(
        hardware=hardware,
        software=software,
        network=network,
        client_id=root.get("client", "anonymous"),
        vm_type=root.get("vm-type"),
        requirements=root.get("requirements"),
        lease_s=_number(root, "lease-s", float),
    )


def _element_key(el: ET.Element) -> Tuple:
    """Hashable structure of ``el``'s subtree: per node in document
    order its tag, child count, attribute count and attributes.

    The counts make the flat tuple an unambiguous encoding of the
    tree; one flat tuple of strings keeps the intern table from adding
    a nested tuple per element to the garbage collector's heap.
    """
    key: List[object] = []
    for node in el.iter():
        items = node.items()
        key += (node.tag, len(node), len(items))
        for item in items:
            key += item
    return tuple(key)


def _interned_dag(el: ET.Element) -> ConfigDAG:
    """The shared sealed DAG for ``<dag>`` element ``el``."""
    key = _element_key(el)
    dag = _interned.get(key)
    if dag is None:
        dag = dag_from_element(el).seal()
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
        _interned[key] = dag
    return dag
