(** The workload-consolidation code transformations (Section IV): the
    paper's primary contribution.

    Given a program containing a kernel with a [#pragma dp]-annotated
    device-side launch, {!apply} produces a fresh program with:

    - the consolidated child kernel ([<child>_cons_<granularity>]) that
      fetches buffered work items and processes them with the original
      child code;
    - the transformed parent: buffer allocation, atomic buffer insertions
      replacing the launch (with graceful overflow fallback to a direct
      launch), the granularity's barrier, and a designated-thread launch
      of the consolidated child;
    - for grid-level consolidation with postwork, the consolidated
      postwork kernel launched by the last block after
      [cudaDeviceSynchronize].

    Recursive kernels (parent = child) are supported: the consolidated
    kernel re-buffers the work its items generate and launches itself for
    the next level; the host seeds it with an initial work buffer.

    The accepted source shape (the paper's Fig. 1 template) and its
    restrictions are documented in the implementation header; violations
    raise {!Unsupported} with an explanation. *)

exception Unsupported of string

(** Exposed for {!Free_launch} and tests. *)
val find_annotated_launch :
  Dpc_kir.Kernel.t -> Dpc_kir.Ast.launch * Dpc_kir.Pragma.t

val copy_kernel : Dpc_kir.Kernel.t -> Dpc_kir.Kernel.t

type result = {
  program : Dpc_kir.Kernel.Program.t;
      (** fresh program with the transformed kernels (finalized) *)
  entry : string;  (** kernel the host launches *)
  recursive : bool;
      (** when true, [entry] is the consolidated kernel itself and the
          host must append two int buffers to the uniform arguments: the
          seed work-item buffer and a one-element counter *)
  cons_kernel : string;
  post_kernel : string option;
  granularity : Dpc_kir.Pragma.granularity;
  nvars : int;  (** buffered variables per work item *)
  policy : Config_select.policy;
  threads : int;  (** consolidated kernel block size *)
  static_blocks : int option;  (** grid size when the policy is static *)
}

(** Host-side launch configuration for a recursive [entry] seeded with
    [items] work items. *)
val launch_config : Dpc_gpu.Config.t -> result -> items:int -> int * int

(** Apply the transformation to the kernel named [parent].
    @raise Unsupported when the source violates the template contract. *)
val apply :
  ?policy:Config_select.policy ->
  cfg:Dpc_gpu.Config.t ->
  parent:string ->
  Dpc_kir.Kernel.Program.t ->
  result
