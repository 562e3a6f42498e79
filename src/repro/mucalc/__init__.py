"""µ-calculus: ASTs, parser, fragments, model checking, PROP() reduction."""

from repro.mucalc.ast import (
    Box, Diamond, Live, MAnd, MExists, MForall, MNot, MOr, Mu, MuFormula,
    Nu, PredVar, QF, box_live, box_live_implies, diamond_live,
    diamond_live_implies, exists_live, forall_live, live)
from repro.mucalc.certify import (
    CertificateError, ReplayReport, replay, state_holds, validate)
from repro.mucalc.checker import ModelChecker, check, extension
from repro.mucalc.ctl import (
    AF, AG, AG_live, AU, AU_live, AX, EF, EF_live, EG, EU, EX, GuardedShape,
    invariant_body, invariant_shape, reachability_body, reachability_shape)
from repro.mucalc.engine import (
    BitsetChecker, CompiledFormula, OnTheFlyVerifier, compile_formula,
    evaluate_local, recognize_shape, to_pnf)
from repro.mucalc.parser import parse_mu
from repro.mucalc.witness import (
    Certificate, ExtractionOutcome, TraceStep, Violation, Witness, extract,
    extract_certificate, render_certificate)
from repro.mucalc.prop import (
    Labeling, PropFormula, prop_check, propositionalize)
from repro.mucalc.syntax import (
    Fragment, check_monotone, classify, free_ivars_unfolded, is_in_fragment,
    require_fragment)

__all__ = [
    "AF", "AG", "AG_live", "AU", "AU_live", "AX", "BitsetChecker", "Box",
    "Certificate", "CertificateError", "CompiledFormula", "Diamond",
    "EF", "EF_live", "EG", "EU", "EX", "ExtractionOutcome", "Fragment",
    "GuardedShape", "Labeling", "Live", "MAnd", "MExists", "MForall",
    "MNot", "MOr", "ModelChecker", "Mu", "MuFormula", "Nu",
    "OnTheFlyVerifier", "PredVar", "PropFormula", "QF", "ReplayReport",
    "TraceStep", "Violation", "Witness", "box_live", "box_live_implies",
    "check", "check_monotone", "classify", "compile_formula",
    "diamond_live", "diamond_live_implies", "evaluate_local", "exists_live",
    "extension", "extract", "extract_certificate", "forall_live",
    "free_ivars_unfolded", "invariant_body", "invariant_shape",
    "is_in_fragment", "live", "parse_mu", "prop_check", "propositionalize",
    "reachability_body", "reachability_shape", "recognize_shape",
    "render_certificate", "replay", "require_fragment", "state_holds",
    "to_pnf", "validate",
]
