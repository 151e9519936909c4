// Package secmodel encodes the Java security model as data: check
// domains, each a guard class, a check table and privileged-block
// semantics (the default domain is the paper's 31 SecurityManager check
// methods, where checks inside AccessController.doPrivileged are
// semantic no-ops), and the domain-independent definitions of
// security-sensitive events (narrow: JNI calls and API returns; broad:
// additionally private field and API parameter accesses). Check names,
// guard classes and privileged scopes are only ever asked of a *Domain.
package secmodel

import (
	"fmt"

	"policyoracle/internal/ir"
	"policyoracle/internal/types"
)

// CheckID identifies one check of a domain's check table. IDs are dense
// in [0, Domain.NumChecks()).
type CheckID int

// securityManagerChecks is the default domain's check table: the 31
// check methods of java.lang.SecurityManager (Java 1.6), distinguishing
// overloads.
var securityManagerChecks = []CheckDesc{
	{"checkAccept", 2},
	{"checkAccess", 1},            // Thread
	{"checkAccessThreadGroup", 1}, // modeled as a distinct name
	{"checkAwtEventQueueAccess", 0},
	{"checkConnect", 2},
	{"checkConnect", 3}, // with security context
	{"checkCreateClassLoader", 0},
	{"checkDelete", 1},
	{"checkExec", 1},
	{"checkExit", 1},
	{"checkLink", 1},
	{"checkListen", 1},
	{"checkMemberAccess", 2},
	{"checkMulticast", 1},
	{"checkMulticast", 2}, // with ttl
	{"checkPackageAccess", 1},
	{"checkPackageDefinition", 1},
	{"checkPermission", 1},
	{"checkPermission", 2}, // with context
	{"checkPrintJobAccess", 0},
	{"checkPropertiesAccess", 0},
	{"checkPropertyAccess", 1},
	{"checkRead", 1},   // file name
	{"checkReadFD", 1}, // FileDescriptor overload, modeled distinctly
	{"checkRead", 2},   // with context
	{"checkSecurityAccess", 1},
	{"checkSetFactory", 0},
	{"checkSystemClipboardAccess", 0},
	{"checkTopLevelWindow", 1},
	{"checkWrite", 1},   // file name
	{"checkWriteFD", 1}, // FileDescriptor overload, modeled distinctly
}

// SecurityManagerClass is the simple name of the class whose check*
// methods are security checks.
const SecurityManagerClass = "SecurityManager"

// AccessControllerClass and DoPrivilegedMethod identify privileged blocks.
const (
	AccessControllerClass = "AccessController"
	DoPrivilegedMethod    = "doPrivileged"
)

func ownerClass(call *ir.Call) *types.Class {
	if call.Declared != nil {
		return call.Declared.Class
	}
	return call.StaticType
}

// ---------------------------------------------------------------------------
// Events

// EventKind classifies security-sensitive events.
type EventKind int

// Event kinds. NativeCall and APIReturn are the narrow (default) set;
// the remaining kinds are enabled by the broad event mode (Section 3).
const (
	NativeCall EventKind = iota
	APIReturn
	PrivateRead
	PrivateWrite
	ParamAccess
)

func (k EventKind) String() string {
	switch k {
	case NativeCall:
		return "native"
	case APIReturn:
		return "return"
	case PrivateRead:
		return "private-read"
	case PrivateWrite:
		return "private-write"
	case ParamAccess:
		return "param-access"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is a security-sensitive event. Key is the cross-implementation
// matching key:
//
//   - NativeCall: the native method's simple signature, e.g. "connect0/2";
//   - APIReturn: "" (one per entry point);
//   - PrivateRead/PrivateWrite: the field's simple name;
//   - ParamAccess: the parameter index, e.g. "p0".
type Event struct {
	Kind EventKind
	Key  string
}

func (e Event) String() string {
	if e.Key == "" {
		return e.Kind.String()
	}
	return e.Kind.String() + ":" + e.Key
}

// NativeEvent builds the event for a call to native method m.
func NativeEvent(m *types.Method) Event {
	return Event{Kind: NativeCall, Key: fmt.Sprintf("%s/%d", m.Name, len(m.Params))}
}

// ReturnEvent is the API-return event.
func ReturnEvent() Event { return Event{Kind: APIReturn} }

// PrivateReadEvent builds the broad-mode event for reading private field f.
func PrivateReadEvent(f *types.Field) Event {
	return Event{Kind: PrivateRead, Key: f.Name}
}

// PrivateWriteEvent builds the broad-mode event for writing private field f.
func PrivateWriteEvent(f *types.Field) Event {
	return Event{Kind: PrivateWrite, Key: f.Name}
}

// ParamAccessEvent builds the broad-mode event for accessing entry-point
// parameter i.
func ParamAccessEvent(i int) Event {
	return Event{Kind: ParamAccess, Key: "p" + itoa(i)}
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// EventMode selects the event definition breadth.
type EventMode int

// Event modes.
const (
	NarrowEvents EventMode = iota // JNI calls + API returns (default)
	BroadEvents                   // + private field and parameter accesses
)

func (m EventMode) String() string {
	if m == BroadEvents {
		return "broad"
	}
	return "narrow"
}
