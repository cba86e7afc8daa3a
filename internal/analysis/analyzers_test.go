package analysis

import "testing"

// Each analyzer runs over its fixture packages; the fixtures carry both
// flagging lines (with // want expectations) and non-flagging code, so a
// false positive and a false negative both fail.

func TestVersionMutOwnPackage(t *testing.T) {
	RunFixture(t, VersionMut, "versionmut/warehouse")
}

func TestVersionMutCrossPackage(t *testing.T) {
	RunFixture(t, VersionMut, "versionmut/a")
}

func TestCowCheckMaintain(t *testing.T) {
	RunFixture(t, CowCheck, "cowcheck/maintain")
}

func TestCowCheckOutsideScope(t *testing.T) {
	RunFixture(t, CowCheck, "cowcheck/outside")
}

func TestCtxFlowPlan(t *testing.T) {
	RunFixture(t, CtxFlow, "ctxflow/plan")
}

func TestCtxFlowPostCommitAllowance(t *testing.T) {
	RunFixture(t, CtxFlow, "ctxflow/warehouse")
}

func TestCtxFlowMainExempt(t *testing.T) {
	RunFixture(t, CtxFlow, "ctxflow/cmd")
}

func TestErrLink(t *testing.T) {
	RunFixture(t, ErrLink, "errlink/a")
}

func TestDocCheckClean(t *testing.T) {
	RunFixture(t, DocCheck, "doccheck/good")
}

func TestDocCheckViolations(t *testing.T) {
	RunFixture(t, DocCheck, "doccheck/bad")
}
