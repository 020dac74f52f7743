// Package core is the interposition toolkit: the paper's primary
// contribution. It lets agents be written in terms of the high-level
// objects of the 4.3BSD system interface rather than in terms of raw
// intercepted system calls, with the amount of new agent code proportional
// to the new functionality rather than to the size of the interface.
//
// The toolkit is layered exactly as in the paper's Figure 2-1:
//
//   - Boilerplate (this package's Launch/Install plumbing and the
//     kernel's emulation-layer mechanism): agent invocation, system call
//     interception, downcalls past the agent (Down, the htg_unix_syscall
//     analog), and signal delivery in both directions. Agents do not use
//     these directly.
//
//   - Numeric system call layer (Numeric): the system interface as a
//     single entry point accepting vectors of untyped numeric arguments,
//     with per-number interest registration. Interception is pay-per-use:
//     numbers without registered interest bypass the agent entirely. The
//     registrations fill a sys.Interest that Numeric embeds; Install
//     copies that set into the kernel's emulation layer, whose dispatch
//     plan is compiled from it, so one set carries interest from the
//     agent to the kernel.
//
//   - Symbolic system call layer (Symbolic): one typed method per system
//     call; the toolkit decodes each intercepted call's arguments and
//     invokes the corresponding method on the outermost agent object.
//     Default implementations take the default action — they make the
//     same call on the next-lower instance of the system interface.
//
//   - Primary abstraction layer (DescriptorSet, PathnameSet, Pathname,
//     OpenObject): the interface as sets of methods on objects
//     representing pathnames and descriptors. The pivotal hooks are
//     PathnameSet.GetPN, which resolves a pathname string to a Pathname
//     object, and the OpenObject operations behind each descriptor.
//
//   - Secondary object layer (Directory): specialized open objects, with
//     the NextDirentry hook that the union agent overrides.
//
// C++ inheritance in the paper maps to Go struct embedding plus an
// explicit Bind(self) step that gives the toolkit layers a reference to
// the outermost object, so that default implementations dispatch through
// agent overrides ("virtual functions").
package core
