package secmodel

import "policyoracle/internal/types"

// EventID is a dense interned id for an Event within one program. IDs are
// assigned when the program model is built (after IR lowering), so the
// analysis hot path records events as small integers instead of hashing
// {kind, key} structs.
type EventID int32

// NoEvent is the id of no event (e.g. the native id of a non-native method).
const NoEvent EventID = -1

// ProgramEvents is the per-program event interning table. It is built
// once per library and is immutable afterwards, so concurrent analysis
// workers share it without locking.
//
// The table is total for one program: every event the analysis can emit —
// the API return, a native call to one of the program's methods, a
// private-field access, a parameter access — is enumerated at build time.
type ProgramEvents struct {
	events  []Event
	byEvent map[Event]EventID

	ret       EventID
	native    []EventID // by Method.ID; NoEvent for non-native methods
	privRead  map[*types.Field]EventID
	privWrite map[*types.Field]EventID
	param     []EventID // by parameter index
}

// BuildProgramEvents enumerates and interns every event the program can
// emit. Registration order (and therefore id order) is deterministic:
// the return event, native events in Method.ID order (overloads sharing
// a name/arity key share an id), private-field events in sorted class
// order, then parameter events by ascending index.
func BuildProgramEvents(p *types.Program) *ProgramEvents {
	pe := &ProgramEvents{
		byEvent:   make(map[Event]EventID),
		privRead:  make(map[*types.Field]EventID),
		privWrite: make(map[*types.Field]EventID),
	}
	pe.ret = pe.intern(ReturnEvent())

	methods := p.AllMethods()
	pe.native = make([]EventID, len(methods))
	maxArity := 0
	for i, m := range methods {
		pe.native[i] = NoEvent
		if m.IsNative() {
			pe.native[i] = pe.intern(NativeEvent(m))
		}
		if len(m.Params) > maxArity {
			maxArity = len(m.Params)
		}
	}
	for _, c := range p.AllClasses() {
		for _, f := range c.Fields {
			if !f.IsPrivate() {
				continue
			}
			pe.privRead[f] = pe.intern(PrivateReadEvent(f))
			pe.privWrite[f] = pe.intern(PrivateWriteEvent(f))
		}
	}
	pe.param = make([]EventID, maxArity)
	for i := range pe.param {
		pe.param[i] = pe.intern(ParamAccessEvent(i))
	}
	return pe
}

func (pe *ProgramEvents) intern(ev Event) EventID {
	if id, ok := pe.byEvent[ev]; ok {
		return id
	}
	id := EventID(len(pe.events))
	pe.events = append(pe.events, ev)
	pe.byEvent[ev] = id
	return id
}

// Event returns the event for an interned id.
func (pe *ProgramEvents) Event(id EventID) Event { return pe.events[id] }

// ReturnID returns the id of the API-return event.
func (pe *ProgramEvents) ReturnID() EventID { return pe.ret }

// NativeID returns the id of the native-call event for m, or NoEvent when
// m is not native.
func (pe *ProgramEvents) NativeID(m *types.Method) EventID { return pe.native[m.ID] }

// PrivateReadID returns the id of the private-read event for f.
func (pe *ProgramEvents) PrivateReadID(f *types.Field) EventID { return pe.privRead[f] }

// PrivateWriteID returns the id of the private-write event for f.
func (pe *ProgramEvents) PrivateWriteID(f *types.Field) EventID { return pe.privWrite[f] }

// ParamID returns the id of the parameter-access event for index i.
func (pe *ProgramEvents) ParamID(i int) EventID { return pe.param[i] }
