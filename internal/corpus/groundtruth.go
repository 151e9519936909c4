package corpus

import (
	"strings"

	"policyoracle/internal/diff"
	"policyoracle/internal/secmodel"
)

// Kind classifies a known difference between the corpus implementations,
// mirroring Section 6.1's categories.
type Kind int

// Difference kinds.
const (
	Vulnerability Kind = iota
	Interoperability
	FalsePositive
)

func (k Kind) String() string {
	switch k {
	case Vulnerability:
		return "vulnerability"
	case Interoperability:
		return "interoperability"
	default:
		return "false-positive"
	}
}

// Issue is one known, labeled difference in the hand-written corpus.
type Issue struct {
	ID string
	Kind
	// Responsible names the implementation at fault (for vulnerabilities)
	// or the implementation whose divergent behavior causes the report.
	Responsible string
	// Pairs lists the library pairs whose comparison exposes the issue.
	Pairs [][2]string
	// MatchEntry is a substring of the manifesting entry-point signatures.
	MatchEntry string
	// MatchCheck names a check that must appear in the difference's check
	// set ("" to match any).
	MatchCheck string
	// BroadOnly marks issues detectable only with broad events (Figure 3).
	BroadOnly bool
	// Figure references the paper figure the issue reproduces.
	Figure string
	Note   string
}

// Matches reports whether group g (from comparing the libraries in pair)
// is this issue. The hand-written corpus is SecurityManager code, so
// MatchCheck is a check name of that domain.
func (is *Issue) Matches(g *diff.Group, pair [2]string) bool {
	if !is.appliesTo(pair) {
		return false
	}
	found := false
	for _, e := range g.Entries {
		if strings.Contains(e, is.MatchEntry) {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	if is.MatchCheck != "" && !strings.Contains(g.DiffChecks.StringIn(secmodel.SecurityManager()), is.MatchCheck) {
		return false
	}
	return true
}

func (is *Issue) appliesTo(pair [2]string) bool {
	for _, p := range is.Pairs {
		if (p[0] == pair[0] && p[1] == pair[1]) || (p[0] == pair[1] && p[1] == pair[0]) {
			return true
		}
	}
	return false
}

// Library names used by the hand-written corpus.
const (
	JDK       = "jdk"
	Harmony   = "harmony"
	Classpath = "classpath"
)

// Sources returns the hand-written sources for the named library.
func Sources(lib string) map[string]string {
	switch lib {
	case JDK:
		return JDKSources()
	case Harmony:
		return HarmonySources()
	case Classpath:
		return ClasspathSources()
	}
	return nil
}

// Libraries lists the corpus implementations.
func Libraries() []string { return []string{JDK, Harmony, Classpath} }

// Pairs lists the three pairwise comparisons of Table 3.
func Pairs() [][2]string {
	return [][2]string{
		{Classpath, Harmony},
		{JDK, Harmony},
		{JDK, Classpath},
	}
}

// KnownIssues returns the ground truth for the hand-written corpus.
func KnownIssues() []Issue {
	withHarmony := [][2]string{{JDK, Harmony}, {Classpath, Harmony}}
	withJDK := [][2]string{{JDK, Harmony}, {JDK, Classpath}}
	withClasspath := [][2]string{{JDK, Classpath}, {Classpath, Harmony}}
	return []Issue{
		{
			ID: "fig1-datagram-checkaccept", Kind: Vulnerability, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "DatagramSocket.connect", MatchCheck: "checkAccept",
			Figure: "Figure 1", Note: "Harmony misses checkAccept on the non-multicast branch",
		},
		{
			ID: "fig5-loadlibrary-checkread", Kind: Vulnerability, Responsible: JDK,
			Pairs: withJDK, MatchEntry: "Runtime.loadLibrary", MatchCheck: "checkRead",
			Figure: "Figure 5", Note: "JDK misses checkRead before loading a library",
		},
		{
			ID: "privileged-property-check", Kind: Vulnerability, Responsible: JDK,
			Pairs: withJDK, MatchEntry: "PropsAccess.getProperty", MatchCheck: "checkPropertyAccess",
			Figure: "Section 6.2", Note: "JDK's check sits inside doPrivileged and is a semantic no-op",
		},
		{
			ID: "fig6-openconnection-checkconnect", Kind: Vulnerability, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "URL.openConnection", MatchCheck: "checkConnect",
			Figure: "Figure 6", Note: "Harmony returns internal state without checkConnect",
		},
		{
			ID: "fig7-socket-connect", Kind: Vulnerability, Responsible: Classpath,
			Pairs: withClasspath, MatchEntry: "Socket.connect", MatchCheck: "checkConnect",
			Figure: "Figure 7", Note: "Classpath omits all checks in Socket.connect",
		},
		{
			ID: "fig8-getbytes-checkexit", Kind: Interoperability, Responsible: JDK,
			Pairs: withJDK, MatchEntry: "StringOps.getBytes", MatchCheck: "checkExit",
			Figure: "Figure 8", Note: "JDK requires checkExit permission where others throw",
		},
		{
			ID: "charsetprovider-permission", Kind: Interoperability, Responsible: Classpath,
			Pairs: withClasspath, MatchEntry: "charset.Charset.forName", MatchCheck: "checkPermission",
			Figure: "Section 6.3", Note: "Classpath's dynamic provider loading needs an extra permission",
		},
		{
			ID: "mustmay-filestream-open", Kind: Interoperability, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "FileStream.open", MatchCheck: "checkRead",
			Figure: "Section 6.1", Note: "checkRead is MUST in JDK/Classpath but only MAY in Harmony",
		},
		{
			ID: "fp-security-getproperty", Kind: FalsePositive, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "Security.getProperty",
			Figure: "Section 6.4", Note: "checkPermission vs checkSecurityAccess achieve the same goal",
		},
		{
			ID: "fp-netif-reachability", Kind: FalsePositive, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "NetworkInterface.getInetAddresses", MatchCheck: "checkConnect",
			Figure: "Section 6.4", Note: "Harmony misuses checkConnect for a reachability probe",
		},
		{
			ID: "fp-props-list", Kind: FalsePositive, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "Props.list",
			Figure: "Section 6.4", Note: "checkPropertyAccess vs checkPropertiesAccess",
		},
		{
			ID: "fig3-bag-private-read", Kind: Vulnerability, Responsible: Harmony,
			Pairs: withHarmony, MatchEntry: "Bag.a", MatchCheck: "checkRead", BroadOnly: true,
			Figure: "Figure 3", Note: "unprotected private read, visible only with broad events",
		},
	}
}

// ClassifyGroup matches a difference group against the ground truth,
// returning the issue or nil for an unlabeled difference.
func ClassifyGroup(g *diff.Group, pair [2]string, broad bool) *Issue {
	issues := KnownIssues()
	for i := range issues {
		is := &issues[i]
		if is.BroadOnly && !broad {
			continue
		}
		if is.Matches(g, pair) {
			return is
		}
	}
	return nil
}
