"""Relying-party validation: repository → validated ROA payloads.

The RP walks every published ROA's certificate chain to a trust anchor,
checking at each step that the certificate is current (unexpired, not
revoked) and that resources are contained in the issuer's resources, and
that the ROA itself is current and within its certificate's resources.
Surviving ROAs become :class:`~repro.rpki.roa.VRP` objects — the input to
route origin validation.

:class:`IncrementalRelyingParty` serves repeated validations of one
repository at many dates (annual timelines, VRP archives).  A ROA's
verdict depends on static facts (orphanhood, resource containment, chain
resolution) and on date windows (its own and its chain's not_before /
not_after); precomputing both reduces each additional validation run to
one pair of date comparisons per ROA.  Only objects whose validity
window is crossed between two query dates can change verdict — the full
walk is never repeated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from datetime import date

from repro import obs
from repro.errors import RPKIError
from repro.rpki.ca import RPKIRepository, ResourceCertificate
from repro.rpki.roa import ROA, VRP

__all__ = ["ValidationReport", "RelyingParty", "IncrementalRelyingParty"]


@dataclass
class ValidationReport:
    """Outcome of one RP run: VRPs plus per-reason rejection counts."""

    vrps: list[VRP] = field(default_factory=list)
    rejected: dict[str, int] = field(default_factory=dict)

    def _reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def rejected_total(self) -> int:
        """Number of ROAs that did not validate."""
        return sum(self.rejected.values())


class RelyingParty:
    """Validates an :class:`RPKIRepository` as of a given date."""

    def __init__(self, repository: RPKIRepository):
        self._repository = repository

    def validate(self, as_of: date) -> ValidationReport:
        """Produce the VRP set a router would receive on ``as_of``."""
        report = ValidationReport()
        chain_ok: dict[str, bool] = {}
        for roa in self._repository.roas:
            certificate = self._repository.certificates.get(roa.certificate_id)
            if certificate is None:
                report._reject("orphan_roa")
                continue
            if not roa.is_current(as_of):
                report._reject("roa_expired")
                continue
            if not certificate.covers(roa.prefix):
                report._reject("roa_outside_certificate")
                continue
            if not self._chain_valid(certificate, as_of, chain_ok):
                report._reject("bad_certificate_chain")
                continue
            report.vrps.append(
                VRP(
                    prefix=roa.prefix,
                    asn=roa.asn,
                    max_length=roa.max_length,
                    trust_anchor=certificate.trust_anchor,
                )
            )
        obs.add("rpki.rp_runs")
        obs.add("rpki.vrps_emitted", len(report.vrps))
        obs.add("rpki.roas_rejected", report.rejected_total)
        return report

    def _chain_valid(
        self,
        certificate: ResourceCertificate,
        as_of: date,
        cache: dict[str, bool],
    ) -> bool:
        cached = cache.get(certificate.certificate_id)
        if cached is not None:
            return cached
        try:
            chain = self._repository.chain_of(certificate)
        except RPKIError:
            cache[certificate.certificate_id] = False
            return False
        valid = all(link.is_current(as_of) for link in chain)
        if valid:
            # Child resources must be contained in the parent's resources
            # all the way up (over-claiming certificates are rejected).
            for child, parent in zip(chain, chain[1:]):
                if not all(
                    parent.covers(resource) for resource in child.resources
                ):
                    valid = False
                    break
        cache[certificate.certificate_id] = valid
        return valid


#: Sentinel windows for "never valid" plans.
_NEVER = (date.max, date.min)


@dataclass(frozen=True)
class _RoaPlan:
    """Date-independent facts about one ROA plus its validity windows.

    Evaluating a plan at a date replays exactly the checks (and check
    order, hence rejection-reason attribution) of
    :meth:`RelyingParty.validate`: orphan, ROA currency, certificate
    coverage, chain validity.
    """

    #: Rejection reason decided without looking at the date, or None.
    static_reason: str | None
    #: The ROA's own [not_before, not_after] window.
    roa_window: tuple[date, date]
    #: Reason checked after ROA currency but before the chain, or None.
    coverage_reason: str | None
    #: Intersection of the chain's windows; ``_NEVER`` when the chain is
    #: unresolvable or over-claiming (statically invalid).
    chain_window: tuple[date, date]
    #: The VRP emitted whenever every check passes.
    vrp: VRP | None

    def reason_at(self, as_of: date) -> str | None:
        """Why the ROA is rejected on ``as_of``; None when it validates."""
        if self.static_reason is not None:
            return self.static_reason
        low, high = self.roa_window
        if not low <= as_of <= high:
            return "roa_expired"
        if self.coverage_reason is not None:
            return self.coverage_reason
        low, high = self.chain_window
        if not low <= as_of <= high:
            return "bad_certificate_chain"
        return None

    def vrp_at(self, as_of: date) -> VRP | None:
        """The VRP this ROA contributes on ``as_of``, if any."""
        return self.vrp if self.reason_at(as_of) is None else None


class IncrementalRelyingParty:
    """Relying party specialised for many validations at many dates.

    Results are identical to ``RelyingParty(repository).validate(as_of)``
    (asserted in the equivalence tests).  The per-ROA plans are aligned
    with ``repository.roas``: they are rebuilt whenever the repository
    changed behind the relying party's back, and patched in place — one
    plan per call — by a caller that reports each ROA it publishes or
    withdraws (:meth:`roa_published`, :meth:`roa_withdrawn`).
    """

    def __init__(self, repository: RPKIRepository):
        self._repository = repository
        self._plans: list[_RoaPlan] | None = None
        #: The ROAs the plans were made from, in plan order.
        self._planned: list[ROA] = []
        self._fingerprint: tuple[int, int] | None = None
        self._chain_windows: dict[str, tuple[date, date]] = {}

    def _current_fingerprint(self) -> tuple[int, int]:
        # The certificate half of the staleness check (the ROA half is
        # the planned list's length).  Revocation swaps a certificate in
        # place (same id, same count), so the revoked tally is part of it.
        return (
            len(self._repository.certificates),
            sum(
                1
                for certificate in self._repository.certificates.values()
                if certificate.revoked
            ),
        )

    def _current_plans(self) -> list[_RoaPlan]:
        """The per-ROA plans, in ``repository.roas`` order."""
        fingerprint = self._current_fingerprint()
        if (
            not self._in_step(len(self._planned))
            or fingerprint != self._fingerprint
        ):
            self._rebuild(fingerprint)
        return self._plans

    def validate(self, as_of: date) -> ValidationReport:
        """Produce the VRP set a router would receive on ``as_of``."""
        report = ValidationReport()
        vrps = report.vrps
        for plan in self._current_plans():
            reason = plan.reason_at(as_of)
            if reason is None:
                vrps.append(plan.vrp)
            else:
                report._reject(reason)
        obs.add("rpki.rp_runs")
        obs.add("rpki.vrps_emitted", len(vrps))
        obs.add("rpki.roas_rejected", report.rejected_total)
        return report

    def roa_published(self, roa: ROA) -> _RoaPlan:
        """The plan of ``roa``, just appended to the repository.

        Plans made before the append grow by this one plan; plans that
        are missing or out of step are rebuilt, and then already hold it.
        """
        if not self._in_step(len(self._planned) + 1):
            return self._current_plans()[-1]
        plan = self._plan(roa)
        self._plans.append(plan)
        self._planned.append(roa)
        return plan

    def roa_withdrawn(self, roa: ROA) -> _RoaPlan:
        """The plan of ``roa``, just removed from the repository.

        ``list.remove`` drops the first ROA equal to ``roa`` and leaves
        every earlier entry the same object, so the first position where
        the repository stops being the planned list by identity is the
        plan to drop.  Out-of-step plans are rebuilt instead.
        """
        roas = self._repository.roas
        if not self._in_step(len(self._planned) - 1):
            self._current_plans()
            return self._plan(roa)
        try:
            index = list(map(operator.is_, self._planned, roas)).index(False)
        except ValueError:  # the withdrawn ROA was the last one
            index = len(roas)
        del self._planned[index]
        return self._plans.pop(index)

    def _in_step(self, expected_roas: int) -> bool:
        """Whether plans exist and the repository holds ``expected_roas``."""
        return (
            self._plans is not None
            and len(self._repository.roas) == expected_roas
        )

    def _rebuild(self, fingerprint: tuple[int, int]) -> None:
        # Certificates may have changed too: chain windows start afresh.
        self._chain_windows = {}
        self._planned = list(self._repository.roas)
        self._plans = [self._plan(roa) for roa in self._planned]
        self._fingerprint = fingerprint
        obs.add("rpki.rp_plans_built")

    def _plan(self, roa: ROA) -> _RoaPlan:
        certificate = self._repository.certificates.get(roa.certificate_id)
        if certificate is None:
            return _RoaPlan("orphan_roa", _NEVER, None, _NEVER, None)
        chain_window = self._chain_windows.get(certificate.certificate_id)
        if chain_window is None:
            chain_window = self._chain_window(certificate)
            self._chain_windows[certificate.certificate_id] = chain_window
        return _RoaPlan(
            None,
            (roa.not_before, roa.not_after),
            None
            if certificate.covers(roa.prefix)
            else "roa_outside_certificate",
            chain_window,
            VRP(
                prefix=roa.prefix,
                asn=roa.asn,
                max_length=roa.max_length,
                trust_anchor=certificate.trust_anchor,
            ),
        )

    def _chain_window(
        self, certificate: ResourceCertificate
    ) -> tuple[date, date]:
        """Dates at which the chain validates, as one closed interval.

        Every link must be simultaneously current, so the window is the
        intersection of the links' windows; resolution failures and
        over-claiming (both date-independent) collapse it to ``_NEVER``.
        """
        try:
            chain = self._repository.chain_of(certificate)
        except RPKIError:
            return _NEVER
        if any(link.revoked for link in chain):
            return _NEVER
        for child, parent in zip(chain, chain[1:]):
            if not all(
                parent.covers(resource) for resource in child.resources
            ):
                return _NEVER
        low = max(link.not_before for link in chain)
        high = min(link.not_after for link in chain)
        if low > high:
            return _NEVER
        return (low, high)
